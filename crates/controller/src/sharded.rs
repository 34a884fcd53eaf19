//! The sharded controller core: UE-partitioned workers over a shared
//! path-installation engine, with batched flow-mod emission.
//!
//! SoftCell's control load divides cleanly by subscriber: attaches,
//! microflow decisions and detaches touch only one UE's state, so the
//! controller partitions its UE records across N worker shards keyed by
//! `fxhash(imsi) mod N` ([`softcell_types::shard_of_ue`]). A UE's owner
//! holds its [`FlowSlots`] and [`FlowRecord`]s, and flow entries come
//! from [`microflow_pair`] — the types a `LocalAgent` runs
//! ([`crate::agent`]), not copies of them, so the two cannot drift in
//! id or slot discipline.
//!
//! Station-scoped state — the UE-id [`IdPool`] a real deployment keeps
//! at the base station's local agent (§4.2) — is *not* sharded. Every pool
//! operation (attach, handoff arrival, detach) belongs to a coordinated
//! event and so already runs under that event's ticket; the pools
//! therefore live beside the engine, inside the value the engine mutex
//! guards ([`Sequenced`]), and are reached in ticket order with no
//! second lock and no message to another thread. Permanent addresses
//! likewise: an attach runs under its ticket, so the engine's own
//! address pool assigns them in ticket order — every UE gets the
//! address the single-threaded controller gives it, at any shard count.
//!
//! # What stays shared, and why the result is deterministic
//!
//! Path installation (Algorithm 1) is order-dependent: the tag an
//! installer picks for the k-th path depends on every path installed
//! before it. Running one installer per shard would therefore produce
//! *structurally different* fabric tables depending on the shard count —
//! correct, but impossible to verify cheaply. Instead the shards share
//! one **engine** (a [`CentralController`]) guarded by a ticket
//! sequencer: every state-mutating ("coordinated") event is assigned a
//! global sequence number *in trace order* by a cheap sequential
//! pre-pass, and a shard may only enter the engine when the global
//! ticket counter reaches its event's number. Each ticket's rule ops are
//! grouped per switch into the shard's [`ShardLog`] — one flat op vector,
//! every group stamped with its ticket — so merging all shards' groups
//! by ticket reproduces exactly the rule-op sequence a single-threaded
//! controller emits, each event's ops grouped the same way —
//! byte-identical, rule ids included. The differential oracle test
//! (`tests/shard_oracle.rs`) checks precisely this.
//!
//! # What a ticket costs besides its engine work
//!
//! About two events in five take a ticket on a mobility-heavy trace, and
//! tickets pass one at a time, so their bookkeeping is kept off shared
//! state. A ticket reads the clock twice — when it is ours and after the
//! engine work and the drain — plus once when its worker must wait for
//! it (a blocked engine mutex, which the ticket rules out during a run,
//! adds one more). The wait, lock-wait and engine-busy times go into the
//! worker's own [`LocalHistogram`]s, absorbed into the global
//! `softcell_controller_*_ns` histograms once, when the worker ends.
//! Grouping appends to the shard's log through one reused
//! `SwitchGrouper`, so a ticket allocates nothing the engine does not.
//!
//! Everything else — classification against precompiled per-subscriber
//! classifiers, flow-slot allocation, microflow rule synthesis for
//! cache-hit flows (the vast majority, Table 2) — runs fully parallel on
//! the owning shard with no locks taken.
//!
//! Coordinated events are rare by design: attach, detach, handoff, and
//! only the *first* flow demanding a (clause, station) policy path; all
//! later flows of that pair read the published tags: from the shard's
//! own tag cache (the local agent's, §4.2) once the shard has seen
//! them, else from a read-mostly shared map, under its read lock.
//!
//! # Liveness
//!
//! A ticket holder never waits on another thread: between taking the
//! engine and handing the ticket on it runs only the engine, the id
//! pools and the published-tags write (`with_ticket` hands its closure
//! the guarded value, nothing else of the worker; the
//! analyzer's `seq-block` rule flags a wait, spin or yield written under
//! the guard). So the earliest unprocessed ticket is always runnable: it is
//! at the head of its shard's queue — every earlier event of that shard
//! is done — and the only other wait, for tags a flow did not demand
//! itself, is on a demand with a smaller ticket — and it ends, skipped,
//! once every smaller ticket has passed without publishing (a move the
//! pre-pass counted on was refused). A worker that panics cannot take or
//! hand on its tickets, so it marks the coordinator failed as it
//! unwinds, and both waits panic when they see the mark: `run` then
//! panics instead of hanging.

use std::net::Ipv4Addr;
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard, RwLock};

use softcell_dataplane::MicroflowAction;
use softcell_packet::{FiveTuple, Protocol};
use softcell_policy::clause::{AccessControl, ClauseId};
use softcell_policy::{ServicePolicy, SubscriberAttributes, UeClassifier};
use softcell_telemetry::{LocalHistogram, Registry};
use softcell_topology::Topology;
use softcell_types::{
    shard_of_ue, BaseStationId, Error, FxHashMap, FxHashSet, IdPool, LocIp, Result, SimDuration,
    SimTime, SwitchId, UeId, UeImsi,
};

use crate::agent::{microflow_pair, FlowSlots, MICROFLOW_IDLE};
use crate::core::{AttachGrant, CentralController, ControllerConfig, PathTags};
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
    /// Whether the policy path was already published (the agent
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
    /// Always 0: no message crosses a shard boundary since the id pools
    /// moved under the ticket. Kept because the frozen `perf/` harness
    /// reads it; the next benchmark-kind PR drops the field and its
    /// `sharded.rendezvous_messages` metric together.
    pub rendezvous_messages: u64,
    /// Flows processed.
    pub flows: u64,
    /// Flows served from published tags (no engine entry) or from the
    /// engine's own path cache (a ticketed demand that found the path
    /// already installed).
    pub cache_hits: u64,
    /// Flows that installed the policy path (coordinated).
    pub cache_misses: u64,
    /// Ticketed flow demands — the first flow per (UE, station, clause)
    /// in the pre-pass, whether or not the path turned out to be
    /// installed already. `coordinated == attaches + detaches +
    /// handoffs + flow_demands` on clean runs.
    pub flow_demands: u64,
    /// Always 0: every path is planned and committed under its ticket
    /// since the optimistic pre-ticket planner went. Kept because the
    /// frozen `perf/` harness reads it; the next benchmark-kind PR drops
    /// the field and its `sharded.commit_replanned` metric together.
    pub commit_replanned: u64,
    /// Flows denied by policy.
    pub denied: u64,
    /// Events skipped.
    pub skipped: u64,
    /// Events that entered the engine.
    pub coordinated: u64,
}

impl ShardedStats {
    fn merge(&mut self, o: &ShardedStats) {
        self.events += o.events;
        self.attaches += o.attaches;
        self.detaches += o.detaches;
        self.handoffs += o.handoffs;
        self.flows += o.flows;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.flow_demands += o.flow_demands;
        self.denied += o.denied;
        self.skipped += o.skipped;
        self.coordinated += o.coordinated;
    }
}

/// One switch's ops of one ticket, borrowed from a [`ShardLog`]: a
/// barrier-delimited batch in the sense of [`crate::ops::SwitchBatch`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SwitchOps<'a> {
    /// The target switch.
    pub switch: SwitchId,
    /// Its ops, in engine emission order.
    pub ops: &'a [RuleOp],
}

/// One shard's rule ops: every ticket's ops grouped per switch (see
/// `SwitchGrouper`) in one flat vector, each group stamped with its
/// ticket.
#[derive(Debug, Default)]
pub struct ShardLog {
    ops: Vec<RuleOp>,
    /// (ticket, switch, its ops in `ops`), in ticket order.
    groups: Vec<(u64, SwitchId, Range<usize>)>,
}

impl ShardLog {
    /// The log's per-switch groups in ticket order, each with its ticket.
    pub fn batches(&self) -> impl Iterator<Item = (u64, SwitchOps<'_>)> + '_ {
        self.groups.iter().map(|&(seq, switch, ref range)| {
            let ops = &self.ops[range.clone()];
            (seq, SwitchOps { switch, ops })
        })
    }
}

/// Everything a sharded run produced.
pub struct ShardedRun<'t> {
    /// The engine after the run — its state, installer and mobility
    /// manager are exactly what a single-threaded run would hold.
    pub engine: CentralController,
    /// Per-event outcomes, indexed like the input events.
    pub outcomes: Vec<EventOutcome>,
    /// Per-shard ticket-stamped op logs.
    pub shard_logs: Vec<ShardLog>,
    /// Merged counters.
    pub stats: ShardedStats,
    /// Borrows nothing: the parameter stays only because `perf/` names it.
    marker: std::marker::PhantomData<&'t ()>,
}

impl ShardedRun<'_> {
    /// Merges the shard logs into the single global batch sequence
    /// (ordered by ticket) a single-threaded controller would have
    /// emitted. Within a ticket, per-switch order is the engine's
    /// emission order; the per-batch barrier makes cross-batch ordering
    /// on one switch explicit (see [`crate::ops::batch_by_switch`]). The
    /// batches are borrowed from `shard_logs`, not cloned.
    pub fn merged_batches(&self) -> Vec<SwitchOps<'_>> {
        let mut all: Vec<(u64, SwitchOps<'_>)> =
            self.shard_logs.iter().flat_map(ShardLog::batches).collect();
        all.sort_by_key(|&(seq, _)| seq);
        all.into_iter().map(|(_, batch)| batch).collect()
    }
}

/// The sharded controller: configuration plus the [`run`](Self::run)
/// driver. One instance can run many traces.
pub struct ShardedController {
    topo: Topology,
    cfg: ControllerConfig,
    shards: usize,
    sched_seed: Option<u64>,
}

// ---------------------------------------------------------------------
// shared read-mostly state

/// What a ticket serialises: the Algorithm-1 engine and the stations'
/// UE-id pools, one value under one mutex.
struct Sequenced {
    engine: CentralController,
    pools: FxHashMap<BaseStationId, IdPool>,
}

impl Sequenced {
    /// Hands out an id at `bs`, held until it is released. The id a
    /// handoff vacates is *not* released — the old location stays
    /// reserved (§5.1).
    fn reserve_ue_id(&mut self, bs: BaseStationId, max: u32) -> Result<UeId> {
        self.pools
            .entry(bs)
            .or_insert_with(|| IdPool::new(max))
            .allocate()
            .map(|id| UeId(id as u16))
            .ok_or_else(|| Error::Exhausted(format!("base station {bs} out of UE ids")))
    }

    /// Returns an id: a reservation whose attach or handoff failed, or a
    /// detached UE's.
    fn release_ue_id(&mut self, bs: BaseStationId, id: UeId) {
        if let Some(pool) = self.pools.get_mut(&bs) {
            pool.release(u32::from(id.0));
        }
    }
}

struct Coordinator {
    engine: Mutex<Sequenced>,
    /// The ticket counter: the seq of the next coordinated event allowed
    /// into the engine.
    next_seq: AtomicU64,
    /// Published policy tags per (station, clause); `Err` poisons the
    /// key so waiters do not spin forever after an engine failure.
    published: RwLock<FxHashMap<(BaseStationId, ClauseId), std::result::Result<PathTags, String>>>,
    /// Every subscriber's classifier (read-only): the engine's compiled
    /// copies, shared by pointer.
    classifiers: FxHashMap<UeImsi, UeClassifier>,
    /// Set by a worker that panicked ([`FailOnPanic`]); the waits panic
    /// on it, as what they wait for may be the dead worker's to produce.
    failed: AtomicBool,
}

impl Coordinator {
    /// Waits until it is ticket `seq`'s turn. Returns when the wait
    /// began, or `None` (and reads no clock) if it already was.
    fn await_ticket(&self, seq: u64) -> Option<Instant> {
        let mut from = None;
        while self.next_seq.load(Ordering::Acquire) != seq {
            from.get_or_insert_with(Instant::now);
            self.check_alive();
            std::thread::yield_now();
        }
        from
    }

    /// Waits for the tags an earlier event — one holding a ticket below
    /// `before` — publishes for `key`. Once those tickets have all passed
    /// with no tags there, none are coming: the pre-pass counted on a
    /// move that failed.
    fn await_published(
        &self,
        key: (BaseStationId, ClauseId),
        before: u64,
    ) -> std::result::Result<PathTags, String> {
        loop {
            // read before the tags: a ticket is handed on after its publish
            let passed = self.next_seq.load(Ordering::Acquire) >= before;
            if let Some(r) = self.published.read().get(&key) {
                return r.clone();
            }
            if passed {
                return Err("no earlier event demanded the path".into());
            }
            self.check_alive();
            std::thread::yield_now();
        }
    }

    fn check_alive(&self) {
        if self.failed.load(Ordering::Acquire) {
            panic!("another shard worker panicked");
        }
    }

    /// Takes the engine after `try_lock` found it held, and notes when.
    fn take_engine(&self, taken: &mut Instant) -> MutexGuard<'_, Sequenced> {
        let held = self.engine.lock();
        *taken = Instant::now();
        held
    }
}

/// Marks the coordinator failed when the worker holding it unwinds.
struct FailOnPanic<'a>(&'a AtomicBool);

impl Drop for FailOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// Per-event annotation from the sequential pre-pass.
#[derive(Clone, Copy, Debug)]
struct Annotation {
    /// Global ticket, for events that must enter the engine.
    seq: Option<u64>,
    /// Tickets handed out before this event.
    before: u64,
}

// ---------------------------------------------------------------------
// shard worker

/// One attached UE on its owner shard — what its local agent would
/// hold for it.
struct ShardUe {
    ue_id: UeId,
    permanent_ip: Ipv4Addr,
    bs: BaseStationId,
    slots: FlowSlots,
    flows: Vec<FlowRecord>,
}

/// One worker's ticket timings in nanoseconds, kept by the worker alone
/// and absorbed into the global histograms when it ends.
#[derive(Default)]
struct TicketTimes {
    /// Time a coordinated event spends waiting for its ticket.
    wait: LocalHistogram,
    /// Time a ticket holder then waits to acquire the engine mutex, kept
    /// apart so contention is not misread as engine work.
    lock_wait: LocalHistogram,
    /// Time the engine stays taken per ticket: the event's engine work
    /// and the op drain (grouping happens outside).
    busy: LocalHistogram,
}

/// Nanoseconds from `from` to `to`, saturating.
fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// A shard's attached UEs. Held by [`Worker::run`] beside the worker,
/// not inside it, so a handler keeps its UE borrowed across the ticket.
type Ues = FxHashMap<UeImsi, ShardUe>;

struct Worker<'c> {
    id: usize,
    coord: &'c Coordinator,
    cfg: ControllerConfig,
    topo: Topology,
    log: ShardLog,
    grouper: SwitchGrouper,
    /// The current ticket's ops, reused from ticket to ticket.
    ticket_ops: Vec<RuleOp>,
    /// This shard's copy of the published tags it has read (the §4.2
    /// local agent's tag cache; `Ok` tags only): a cache-hit flow reads
    /// `published` only when its key is missing here. A key's tags never
    /// change once published — a poisoned key is `Err` until its first
    /// `Ok` — so the copy cannot go stale.
    tags: FxHashMap<(BaseStationId, ClauseId), PathTags>,
    times: TicketTimes,
    /// One outcome per event of this shard's queue, in queue order.
    outcomes: Vec<EventOutcome>,
    stats: ShardedStats,
    /// Interleaving-test scheduler state; `None` (no seed) never yields.
    rng: Option<u64>,
}

impl Worker<'_> {
    /// Seeded jitter: up to three yields, to perturb which shard reaches
    /// its ticket first (the concurrency test sweeps seeds through
    /// here). Never called by a ticket holder.
    fn jitter(&mut self) {
        let Some(x) = self.rng.as_mut() else { return };
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        for _ in 0..*x % 4 {
            std::thread::yield_now();
        }
    }

    /// Waits for this event's ticket, runs `f` against the engine and
    /// the id pools, and groups the ticket's rule ops — the engine's
    /// pending stream, where every mutation queues its ops — into this
    /// shard's log under the ticket number. `f` gets nothing of the
    /// worker: what runs under the ticket is ordered work only.
    fn with_ticket<R>(&mut self, seq: u64, f: impl FnOnce(&mut Sequenced) -> R) -> R {
        self.jitter();
        let coord = self.coord;
        let tracer = Registry::global().tracer();
        let ours = {
            let mut sp = tracer.span("ticket_wait");
            sp.set_shard(self.id);
            sp.set_label(seq);
            let waited_from = coord.await_ticket(seq);
            let ours = Instant::now();
            let waited = waited_from.map_or(0, |from| nanos(from, ours));
            self.times.wait.record(waited);
            ours
        };
        self.stats.coordinated += 1;
        let ops = &mut self.ticket_ops;
        ops.clear();
        let result = {
            let mut sp = tracer.span("engine_hold");
            sp.set_shard(self.id);
            sp.set_label(seq);
            // engine-mutex acquisition measured separately: only ticket
            // holders take the engine during a run, so it is free, but a
            // caller holding it would otherwise be misread as engine work
            let mut taken = ours;
            let mut held = coord
                .engine
                .try_lock()
                .unwrap_or_else(|| coord.take_engine(&mut taken));
            let result = f(&mut held);
            // moved, not drained: both vectors keep their room
            ops.append(&mut held.engine.pending_ops);
            drop(held);
            let done = Instant::now();
            self.times.lock_wait.record(nanos(ours, taken));
            self.times.busy.record(nanos(taken, done));
            result
        };
        // hand the ticket on before grouping: it needs neither the
        // engine nor the sequencer, so the next coordinated event
        // overlaps with it
        coord.next_seq.store(seq + 1, Ordering::Release);
        if !ops.is_empty() {
            let mut sp = tracer.span("batch_by_switch");
            sp.set_shard(self.id);
            sp.set_label(seq);
            let groups = &mut self.log.groups;
            self.grouper.group(ops, &mut self.log.ops, |switch, range| {
                groups.push((seq, switch, range));
            });
        }
        result
    }

    fn skip(&mut self, reason: impl Into<String>) {
        self.stats.skipped += 1;
        self.outcomes.push(EventOutcome::Skipped {
            reason: reason.into(),
        });
    }

    fn handle_event(&mut self, ues: &mut Ues, idx: usize, ev: ShardEvent, ann: Annotation) {
        self.stats.events += 1;
        // Trace root per event: the ticket/engine/batch spans below
        // nest under it via the thread-local context. Disarmed sampling
        // makes this a single atomic load.
        let mut root = Registry::global().tracer().root(match ev.kind {
            ShardEventKind::Attach { .. } => "shard_attach",
            ShardEventKind::NewFlow { .. } => "shard_new_flow",
            ShardEventKind::Handoff { .. } => "shard_handoff",
            ShardEventKind::Detach { .. } => "shard_detach",
        });
        root.set_shard(self.id);
        root.set_label(idx as u64);
        match ev.kind {
            ShardEventKind::Attach { bs } => self.handle_attach(ues, ev, bs, ann),
            ShardEventKind::NewFlow {
                bs,
                dst,
                src_port,
                dst_port,
                udp,
            } => self.handle_flow(ues, ev, bs, dst, src_port, dst_port, udp, ann),
            ShardEventKind::Handoff { from, to } => self.handle_handoff(ues, ev, from, to, ann),
            ShardEventKind::Detach { bs: _ } => self.handle_detach(ues, ev, ann),
        }
    }

    fn handle_attach(&mut self, ues: &mut Ues, ev: ShardEvent, bs: BaseStationId, ann: Annotation) {
        let seq = ann.seq.expect("attach is coordinated");
        if ues.contains_key(&ev.imsi) {
            // still consume the ticket: later events' seqs depend on it
            self.with_ticket(seq, |_| ());
            return self.skip(format!("{} already attached", ev.imsi));
        }
        let max_ids = self.cfg.scheme.max_ues_per_station();
        let granted: Result<AttachGrant> = self.with_ticket(seq, |held| {
            held.reserve_ue_id(bs, max_ids).and_then(|id| {
                held.engine
                    .attach_ue(ev.imsi, bs, id, ev.time)
                    .inspect_err(|_| held.release_ue_id(bs, id))
            })
        });
        match granted {
            Ok(grant) => {
                ues.insert(
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
                self.outcomes.push(EventOutcome::Attached {
                    record: grant.record,
                });
            }
            Err(e) => self.skip(format!("attach failed: {e}")),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_flow(
        &mut self,
        ues: &mut Ues,
        ev: ShardEvent,
        bs: BaseStationId,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        udp: bool,
        ann: Annotation,
    ) {
        self.stats.flows += 1;
        let proto = if udp { Protocol::Udp } else { Protocol::Tcp };
        let Some(classifier) = self.coord.classifiers.get(&ev.imsi) else {
            if let Some(seq) = ann.seq {
                self.with_ticket(seq, |_| ());
            }
            return self.skip("unknown subscriber");
        };
        let Some(entry) = classifier.classify(proto, dst_port) else {
            if let Some(seq) = ann.seq {
                self.with_ticket(seq, |_| ());
            }
            return self.skip("policy matches nothing for this flow");
        };
        let key = (bs, entry.clause);
        let Some(ue) = ues.get_mut(&ev.imsi).filter(|u| u.bs == bs) else {
            // the annotator's replay assumed this UE reached `bs`; if a
            // prior attach/handoff failed at runtime we must still burn
            // the ticket AND poison the published key so non-coordinated
            // flows of the same (bs, clause) do not wait forever
            if let Some(seq) = ann.seq {
                self.stats.flow_demands += 1;
                let coord = self.coord;
                self.with_ticket(seq, |_| {
                    coord
                        .published
                        .write()
                        .entry(key)
                        .or_insert_with(|| Err("path demander was skipped".into()));
                });
            }
            return self.skip(format!("{} not attached at {bs}", ev.imsi));
        };
        let tuple = FiveTuple {
            src: ue.permanent_ip,
            dst,
            src_port,
            dst_port,
            proto,
        };
        let access = self.topo.base_station(bs).access_switch;
        let radio = self.topo.base_station(bs).radio_port;

        if entry.access == AccessControl::Deny {
            self.stats.denied += 1;
            self.outcomes.push(EventOutcome::Flow(FlowDecision {
                bs,
                access,
                clause: entry.clause,
                denied: true,
                cache_hit: true,
                installs: FlowInstalls::One((tuple, MicroflowAction::Drop)),
                time: ev.time,
            }));
            return;
        }

        let (tags, cache_hit) = match ann.seq {
            // This flow demands the path: the engine installs it under
            // the ticket, or finds it installed already — the engine's own
            // (clause, station) cache answers when another UE demanded the
            // key first, a hit in every sense that matters (no rules are
            // produced). The publish unconditionally overwrites the key,
            // so a successful demand clears any earlier poison (`Err`)
            // left by a failed one.
            Some(seq) => {
                self.stats.flow_demands += 1;
                let coord = self.coord;
                let tags = self.with_ticket(seq, |held| {
                    let cached = held.engine.routed_path(bs, entry.clause).is_some();
                    let r = held.engine.request_policy_path(bs, entry.clause);
                    let published = r.as_ref().copied().map_err(|e| e.to_string());
                    coord.published.write().insert(key, published);
                    r.map(|t| (t, cached))
                });
                match tags {
                    Ok((t, cached)) => {
                        if cached {
                            self.stats.cache_hits += 1;
                        } else {
                            self.stats.cache_misses += 1;
                        }
                        self.tags.insert(key, t);
                        (t, cached)
                    }
                    Err(e) => return self.skip(format!("path request failed: {e}")),
                }
            }
            // published by an earlier event: this shard's copy, or the
            // shared map (possibly waiting for another shard to publish)
            None => {
                let tags = match self.tags.get(&key) {
                    Some(t) => Ok(*t),
                    None => {
                        let r = self.coord.await_published(key, ann.before);
                        if let Ok(t) = r {
                            self.tags.insert(key, t);
                        }
                        r
                    }
                };
                match tags {
                    Ok(t) => {
                        self.stats.cache_hits += 1;
                        (t, true)
                    }
                    Err(e) => return self.skip(format!("path request failed: {e}")),
                }
            }
        };

        let loc_addr = match self.cfg.scheme.encode(LocIp::new(bs, ue.ue_id)) {
            Ok(a) => a,
            Err(e) => return self.skip(format!("loc encode failed: {e}")),
        };
        let Some(slot) = ue.slots.allocate(self.cfg.ports.flow_slots()) else {
            return self.skip("all flow slots active");
        };
        let flow = match microflow_pair(
            &self.cfg.ports,
            &tags,
            loc_addr,
            ue.permanent_ip,
            radio,
            tuple,
            slot,
        ) {
            Ok(f) => f,
            Err(e) => return self.skip(format!("port encode failed: {e}")),
        };
        ue.flows.push(flow);
        self.outcomes.push(EventOutcome::Flow(FlowDecision {
            bs,
            access,
            clause: entry.clause,
            denied: false,
            cache_hit,
            installs: FlowInstalls::Two([
                (flow.uplink, flow.up_action),
                (flow.downlink, flow.down_action),
            ]),
            time: ev.time,
        }));
    }

    fn handle_handoff(
        &mut self,
        ues: &mut Ues,
        ev: ShardEvent,
        from: BaseStationId,
        to: BaseStationId,
        ann: Annotation,
    ) {
        let Some(seq) = ann.seq else {
            return self.skip("handoff to the same station");
        };
        let Some(ue) = ues.get_mut(&ev.imsi) else {
            self.with_ticket(seq, |_| ());
            return self.skip(format!("{} not attached", ev.imsi));
        };
        // the station actually being vacated is the one this shard has
        // the UE at (the trace's `from` matches it on consistent traces)
        let from = if ue.bs == from { from } else { ue.bs };
        if from == to {
            self.with_ticket(seq, |_| ());
            return self.skip("handoff to the same station");
        }

        // Reserve an id at the target station and run the engine plan;
        // the vacated station's pool is not touched (its id stays held,
        // §5.1).
        let max_ids = self.cfg.scheme.max_ues_per_station();
        let flows = &ue.flows;
        let plan = self.with_ticket(seq, |held| {
            held.reserve_ue_id(to, max_ids).and_then(|new_id| {
                held.engine
                    .handoff(ev.imsi, to, new_id, flows, ev.time)
                    .inspect_err(|_| held.release_ue_id(to, new_id))
            })
        });
        let plan = match plan {
            Ok(p) => p,
            Err(e) => return self.skip(format!("handoff failed: {e}")),
        };

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
        self.outcomes.push(EventOutcome::HandedOff(HandoffOutcome {
            old_access: self.topo.base_station(from).access_switch,
            new_access: self.topo.base_station(to).access_switch,
            removals: plan.old_microflow_removals,
            installs: plan.new_microflow_installs,
            time: ev.time,
        }));
    }

    fn handle_detach(&mut self, ues: &mut Ues, ev: ShardEvent, ann: Annotation) {
        let seq = ann.seq.expect("detach is coordinated");
        if !ues.contains_key(&ev.imsi) {
            self.with_ticket(seq, |_| ());
            return self.skip(format!("{} not attached", ev.imsi));
        }
        let record = self.with_ticket(seq, |held| {
            held.engine
                .detach_ue(ev.imsi)
                .inspect(|record| held.release_ue_id(record.bs, record.ue_id))
        });
        match record {
            Ok(record) => {
                ues.remove(&ev.imsi);
                self.stats.detaches += 1;
                self.outcomes.push(EventOutcome::Detached { record });
            }
            Err(e) => self.skip(format!("detach failed: {e}")),
        }
    }

    fn run(mut self, events: Vec<(usize, ShardEvent, Annotation)>) -> WorkerOutput {
        let coord = self.coord;
        let _mark = FailOnPanic(&coord.failed);
        let mut ues = Ues::default();
        self.outcomes.reserve_exact(events.len());
        for (idx, ev, ann) in events {
            self.handle_event(&mut ues, idx, ev, ann);
        }
        for (name, times) in [
            ("softcell_controller_ticket_wait_ns", &self.times.wait),
            (
                "softcell_controller_engine_lock_wait_ns",
                &self.times.lock_wait,
            ),
            ("softcell_controller_engine_busy_ns", &self.times.busy),
        ] {
            Registry::global().histogram(name).absorb(times);
        }
        WorkerOutput {
            outcomes: self.outcomes,
            log: self.log,
            stats: self.stats,
        }
    }
}

struct WorkerOutput {
    outcomes: Vec<EventOutcome>,
    log: ShardLog,
    stats: ShardedStats,
}

// ---------------------------------------------------------------------
// the driver

impl ShardedController {
    /// Creates a sharded controller with `shards` workers.
    pub fn new(topo: &Topology, cfg: ControllerConfig, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardedController {
            topo: topo.clone(),
            cfg,
            shards,
            sched_seed: None,
        }
    }

    /// Seeds the interleaving-test scheduler: each worker yields a
    /// seeded number of times before every ticket wait (the result must
    /// not depend on it). Without a seed a run never yields for jitter.
    pub fn with_sched_seed(mut self, seed: u64) -> Self {
        self.sched_seed = Some(seed);
        self
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The sequential pre-pass: replays the trace's station bookkeeping
    /// and classification to find the coordinated events, assigning them
    /// global ticket numbers in trace order. Pure — no controller state
    /// is touched.
    fn annotate(
        &self,
        events: &[ShardEvent],
        classifiers: &FxHashMap<UeImsi, UeClassifier>,
    ) -> Vec<Annotation> {
        let mut attached: FxHashMap<UeImsi, BaseStationId> = FxHashMap::default();
        // Demands are tracked per (UE, station, clause), not per
        // (station, clause): each UE's first flow for a key gets its own
        // ticket. Later tickets for an already-installed key are served
        // from the engine's path cache and emit no ops (so the merged
        // batch stream is unchanged), but they re-enter the engine —
        // which is what un-poisons a key whose original demander failed
        // (a dead UE would otherwise permanently kill the key for
        // everyone). See `poisoned_key_recovers_when_another_ue_demands`.
        let mut demanded: FxHashSet<(UeImsi, BaseStationId, ClauseId)> = FxHashSet::default();
        let mut next_seq = 0u64;
        events
            .iter()
            .map(|ev| {
                let coordinated = match ev.kind {
                    ShardEventKind::Attach { bs } => {
                        attached.insert(ev.imsi, bs);
                        true
                    }
                    ShardEventKind::Detach { .. } => {
                        attached.remove(&ev.imsi);
                        true
                    }
                    ShardEventKind::Handoff { from, to } => {
                        if from != to {
                            attached.insert(ev.imsi, to);
                        }
                        from != to
                    }
                    ShardEventKind::NewFlow {
                        bs, dst_port, udp, ..
                    } => {
                        let proto = if udp { Protocol::Udp } else { Protocol::Tcp };
                        let entry = classifiers
                            .get(&ev.imsi)
                            .and_then(|c| c.classify(proto, dst_port));
                        entry.is_some_and(|e| {
                            e.access == AccessControl::Allow
                                && attached.get(&ev.imsi) == Some(&bs)
                                && demanded.insert((ev.imsi, bs, e.clause))
                        })
                    }
                };
                let before = next_seq;
                next_seq += u64::from(coordinated);
                let seq = coordinated.then_some(before);
                Annotation { seq, before }
            })
            .collect()
    }

    /// Runs a trace to completion: routes every event to its UE's owner
    /// shard, runs the shards concurrently, and returns the outcomes,
    /// the shard logs and the engine.
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
        // table: the attaches and handoffs under the ticket hand out
        // these same copies
        let classifiers: FxHashMap<UeImsi, UeClassifier> = subscribers
            .iter()
            .filter_map(|attrs| Some((attrs.imsi, engine.classifier_of(attrs.imsi).ok()?)))
            .collect();
        let annotations = self.annotate(events, &classifiers);

        let coord = Coordinator {
            engine: Mutex::new(Sequenced {
                engine,
                pools: FxHashMap::default(),
            }),
            next_seq: AtomicU64::new(0),
            published: RwLock::new(FxHashMap::default()),
            classifiers,
            failed: AtomicBool::new(false),
        };

        let mut queues = vec![Vec::new(); self.shards];
        for (idx, (ev, ann)) in events.iter().zip(&annotations).enumerate() {
            queues[shard_of_ue(ev.imsi, self.shards)].push((idx, *ev, *ann));
        }

        let outputs: Vec<WorkerOutput> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.shards);
            for (id, queue) in queues.into_iter().enumerate() {
                let worker = Worker {
                    id,
                    coord: &coord,
                    cfg: self.cfg,
                    topo: self.topo.clone(),
                    log: ShardLog::default(),
                    grouper: SwitchGrouper::default(),
                    ticket_ops: Vec::new(),
                    tags: FxHashMap::default(),
                    times: TicketTimes::default(),
                    outcomes: Vec::new(),
                    stats: ShardedStats::default(),
                    rng: self
                        .sched_seed
                        .map(|seed| (seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1),
                };
                handles.push(scope.spawn(move || worker.run(queue)));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });

        let mut stats = ShardedStats::default();
        let mut by_shard = Vec::with_capacity(self.shards);
        let mut shard_logs = Vec::with_capacity(self.shards);
        for out in outputs {
            stats.merge(&out.stats);
            by_shard.push(out.outcomes.into_iter());
            shard_logs.push(out.log);
        }
        // each shard's outcomes are in its queue's order: an event's is
        // the next one of the shard that owns its UE
        let outcomes = events
            .iter()
            .map(|ev| by_shard[shard_of_ue(ev.imsi, self.shards)].next())
            .map(|o| o.expect("every event leaves exactly one outcome"))
            .collect();

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
            engine: coord.engine.into_inner().engine,
            outcomes,
            shard_logs,
            stats,
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

    fn coordinator(topo: &Topology) -> Coordinator {
        let policy = ServicePolicy::example_carrier_a(1);
        let engine = CentralController::new(topo, ControllerConfig::simulation(), policy);
        Coordinator {
            engine: Mutex::new(Sequenced {
                engine,
                pools: FxHashMap::default(),
            }),
            next_seq: AtomicU64::new(0),
            published: RwLock::new(FxHashMap::default()),
            classifiers: FxHashMap::default(),
            failed: AtomicBool::new(false),
        }
    }

    #[test]
    fn a_panicking_worker_marks_the_coordinator_failed() {
        let topo = small_topology();
        let coord = coordinator(&topo);
        let finish = || drop(FailOnPanic(&coord.failed));
        std::thread::scope(|s| s.spawn(finish).join()).unwrap();
        assert!(!coord.failed.load(Ordering::Acquire), "a worker that ends");
        let die = || {
            let _mark = FailOnPanic(&coord.failed);
            panic!("engine failure");
        };
        assert!(std::thread::scope(|s| s.spawn(die).join()).is_err());
        assert!(coord.failed.load(Ordering::Acquire), "a worker that dies");
    }

    #[test]
    #[should_panic(expected = "another shard worker panicked")]
    fn the_ticket_wait_panics_once_the_coordinator_is_marked_failed() {
        let topo = small_topology();
        let coord = coordinator(&topo);
        coord.failed.store(true, Ordering::Release);
        assert_eq!(coord.await_ticket(0), None, "ticket 0's turn: no wait");
        coord.await_ticket(1);
    }

    #[test]
    #[should_panic(expected = "another shard worker panicked")]
    fn the_published_tags_wait_panics_once_the_coordinator_is_marked_failed() {
        let topo = small_topology();
        let coord = coordinator(&topo);
        coord.failed.store(true, Ordering::Release);
        // ticket 0 has not passed, so its tags could still come
        let _ = coord.await_published((BaseStationId(0), ClauseId(0)), 1);
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
        // both demands produced fabric batches, merged in ticket order
        let merged = run.merged_batches();
        assert!(!merged.is_empty());
    }

    #[test]
    fn poisoned_key_recovers_when_another_ue_demands() {
        // ISSUE-8 satellite: a failed coordinated install used to poison
        // its (station, clause) key forever, because demands were
        // ticketed once globally per key. Per-UE tickets let a later
        // UE's demand re-enter the engine, succeed, and overwrite the
        // poison — after which waiters serve cache hits again.
        let topo = small_topology();
        let mut cfg = ControllerConfig::simulation();
        // a two-address pool with one assignable address (.0 is
        // reserved), so the second attach fails after its annotation
        // already assumed success
        cfg.permanent_pool =
            softcell_types::Ipv4Prefix::from_bits(u32::from(Ipv4Addr::new(100, 64, 0, 0)), 31);
        let sc = ShardedController::new(&topo, cfg, 1);
        let events = vec![
            attach(0, 0, 0),
            attach(1, 1, 0),            // pool exhausted: skipped
            flow(2, 1, 0, 40_000, 443), // ue1 not attached: burns its ticket, poisons the key
            flow(3, 0, 0, 40_001, 443), // ue0's own ticketed demand: succeeds, clears the poison
            flow(4, 0, 0, 40_002, 443), // un-ticketed waiter: served from published tags
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
                "ue0's demand must succeed despite the poison: {:?}",
                run.outcomes[3]
            );
        };
        assert!(!f.cache_hit, "ue0's flow installed the path");
        let EventOutcome::Flow(f) = &run.outcomes[4] else {
            panic!("waiter must see the cleared key: {:?}", run.outcomes[4]);
        };
        assert!(f.cache_hit, "second flow rides the published tags");
        assert_eq!(run.stats.cache_misses, 1);
        assert_eq!(run.stats.cache_hits, 1);
        assert_eq!(run.stats.flow_demands, 2, "ue1's burned demand + ue0's");
    }

    #[test]
    fn waiters_observe_engine_failure_instead_of_spinning() {
        // an engine failure must publish `Err` so un-ticketed waiters on
        // the same key terminate (skip) rather than spin forever
        let topo = small_topology();
        let mut cfg = ControllerConfig::simulation();
        cfg.tag_policy.capacity = 0; // every install fails: tag space empty
        let sc = ShardedController::new(&topo, cfg, 1);
        let events = vec![
            attach(0, 0, 0),
            flow(1, 0, 0, 40_000, 443), // demander: engine fails, publishes Err
            flow(2, 0, 0, 40_001, 443), // waiter: must observe Err and skip
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
    }

    #[test]
    fn handoff_rekeys_flows_and_reserves_the_old_slot() {
        let topo = small_topology();
        let sc =
            ShardedController::new(&topo, ControllerConfig::simulation(), 4).with_sched_seed(7);
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
    fn handoff_failing_under_the_ticket_leaves_the_ue_where_it_was() {
        // regression: the engine recorded a handoff that then failed, so
        // the engine had the UE at the new station and its shard at the
        // old one. The pre-pass assumes the move succeeded; the UE's
        // later events must be served where it really is, identically
        // at one and two shards.
        let topo = small_topology();
        let on_shard = |shard| (0..).find(|i| shard_of_ue(UeImsi(*i), 2) == shard).unwrap();
        let (a, b) = (on_shard(0), on_shard(1));
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
        let subscribers = subs(a.max(b) + 1);
        let run = |cfg, shards, events: &[ShardEvent]| {
            let sc = ShardedController::new(&topo, cfg, shards);
            sc.run(ServicePolicy::example_carrier_a(1), &subscribers, events)
        };
        // a tag space the two policy paths use up
        let mut cfg = ControllerConfig::simulation();
        let paths_only = run(cfg, 1, &events[..4]);
        cfg.tag_policy.capacity = paths_only.engine.installer().tags_in_use() as u16;

        let (one, two) = (run(cfg, 1, &events), run(cfg, 2, &events));
        for r in [&one, &two] {
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
            let engine = r.engine.state();
            assert_eq!(engine.ue(UeImsi(a)).unwrap().bs, BaseStationId(0));
            assert_eq!(engine.reserved_count(), 0);
            assert_eq!(r.engine.mobility().transitions_active(), 0);
            assert_eq!(r.engine.mobility().tunnel_count(), 0);
        }
        // the engine assigns addresses in ticket order at any shard count
        assert_eq!(format!("{:?}", one.outcomes), format!("{:?}", two.outcomes));
        assert_eq!(one.merged_batches(), two.merged_batches());
    }
}
