//! The controller's front-end: the one place agents' requests enter a
//! controller, and the threaded server of the §6.2 micro-benchmarks.
//!
//! The paper benchmarks its Floodlight-based controller with Cbench:
//! 1000 emulated switches (= local agents) flood packet-in events and
//! the controller answers with packet classifiers, reaching 2.2 M
//! requests/second with 15 threads. [`ControllerServer`] is the Rust
//! analogue: N domains in front of one seat ([`ReplicaNode`]), whose log
//! and Algorithm-1 engine hold every UE, address and path. Every request
//! is one [`ReplicaNode::propose`], answered once its record commits:
//! on append for the one-seat membership of
//! [`ControllerServer::start_sharded`], at quorum for a seat of
//! `softcell-scenario`'s `Cluster` harness, which runs one server per
//! seat.
//!
//! A domain is a *lock* and a queue, not a thread. The [`RequestRouter`]
//! sends every request to the domain owning its key — UE-scoped requests
//! by [`shard_of_ue`], station-scoped ones by [`shard_of_station`] — and
//! the routing thread serves it there and then when that domain is free;
//! otherwise it waits in the domain's bounded queue, whose worker takes
//! the same lock. Under the domain lock a handler proposes, then sleeps
//! through the simulated install fence holding the domain alone, so
//! fences of different domains overlap. No switch is connected: the
//! engine's shadow tables are the fabric model, and the rule ops a
//! proposal queues are dropped.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::{Mutex, MutexGuard};

use softcell_ctlchan::PacketIn;
use softcell_policy::clause::ClauseId;
use softcell_policy::{ServicePolicy, SubscriberAttributes};
use softcell_telemetry::{trace, Counter, Gauge, Histogram, Registry, ReqTrace, Stopwatch};
use softcell_types::{
    shard_of_station, shard_of_ue, BaseStationId, ControllerId, Error, Membership, Result, SimTime,
    UeId, UeImsi,
};

use crate::node::{Committed, ReplicaConfig, ReplicaNode};

/// Default request-queue depth. Bounded so a flood of packet-in events
/// exerts backpressure on agents instead of growing controller memory
/// without limit (the paper's Cbench setup saturates the controller the
/// same way).
pub const DEFAULT_QUEUE_DEPTH: usize = 4096;

/// Most domains a server starts: each is a worker thread, and the count
/// comes from a command line (`--shards`).
const MAX_DOMAINS: usize = 1024;

/// A request from a local agent: one packet-in, proposed on the seat.
/// Every kind is answered with the committed record.
pub enum Request {
    /// A UE attached over the wire: the engine records it and answers
    /// with its grant (an attach at the UE's own location returns its
    /// live record).
    Attach {
        /// The subscriber.
        imsi: UeImsi,
        /// The station it attached at.
        bs: BaseStationId,
        /// Its station-local id.
        ue_id: UeId,
        /// Attach time.
        now: SimTime,
        /// Where to send the answer.
        reply: Sender<Result<Committed>>,
        /// Trace context + enqueue stamp ([`ReqTrace::NONE`]: untraced).
        trace: ReqTrace,
    },
    /// A UE detached over the wire: the engine drops its record and
    /// returns it.
    Detach {
        /// The subscriber.
        imsi: UeImsi,
        /// Where to send the answer.
        reply: Sender<Result<Committed>>,
        /// Trace context + enqueue stamp.
        trace: ReqTrace,
    },
    /// A tag-cache miss: the tags of a (base station, clause) policy
    /// path, installed by Algorithm 1 if it is new.
    PathTag {
        /// Origin station.
        bs: BaseStationId,
        /// The clause.
        clause: ClauseId,
        /// Where to send the answer.
        reply: Sender<Result<Committed>>,
        /// Trace context + enqueue stamp.
        trace: ReqTrace,
    },
}

impl Request {
    /// The packet-in this request proposes, where its answer goes and
    /// its trace.
    fn into_parts(self) -> (PacketIn, Sender<Result<Committed>>, ReqTrace) {
        match self {
            Request::Attach {
                imsi,
                bs,
                ue_id,
                now,
                reply,
                trace,
            } => {
                let op = PacketIn::Attach {
                    imsi,
                    bs,
                    ue_id,
                    now,
                };
                (op, reply, trace)
            }
            Request::Detach { imsi, reply, trace } => (PacketIn::Detach { imsi }, reply, trace),
            Request::PathTag {
                bs,
                clause,
                reply,
                trace,
            } => (PacketIn::PathRequest { bs, clause }, reply, trace),
        }
    }
}

/// What waits in a domain's queue.
enum Job {
    /// A packet-in to propose, where its answer goes, and its trace.
    Serve(PacketIn, Sender<Result<Committed>>, ReqTrace),
    /// The send of an answer a routing thread computed and found its
    /// reply channel full for: only the worker may block on it.
    Deliver(Box<dyn FnOnce() + Send>),
    /// Sent by [`ControllerServer::shutdown`]; the worker exits on it.
    Shutdown,
}

/// Routes requests to the domain owning their key: UE-scoped requests
/// ([`Request::Attach`], [`Request::Detach`]) by [`shard_of_ue`],
/// station-scoped ones ([`Request::PathTag`]) by [`shard_of_station`].
/// The only way into a [`ControllerServer`].
#[derive(Clone)]
pub struct RequestRouter {
    /// Per domain: its queue's sending end, and the domain itself.
    cells: Arc<[(Sender<Job>, Arc<DomainCell>)]>,
}

impl RequestRouter {
    /// The domain a packet-in belongs to.
    pub fn shard_of(&self, op: &PacketIn) -> usize {
        let n = self.cells.len();
        match *op {
            PacketIn::Attach { imsi, .. } | PacketIn::Detach { imsi } => shard_of_ue(imsi, n),
            PacketIn::PathRequest { bs, .. } => shard_of_station(bs, n),
        }
    }

    /// Serves `op` on the calling thread if its domain is free, else
    /// enqueues it, waiting for room when `block`. `Ok(false)`: the
    /// domain was busy and its queue full, so `op` was shed (the caller
    /// must account for it — see the wire front-end's
    /// `server_queue_rejected` counter); `Err`: the pool is gone.
    pub(crate) fn submit(
        &self,
        op: PacketIn,
        reply: Sender<Result<Committed>>,
        trace: ReqTrace,
        block: bool,
    ) -> Result<bool> {
        let (queue, cell) = &self.cells[self.shard_of(&op)];
        // free: nothing queued ahead (Acquire pairs with `worker_loop`'s
        // Release, after an answer is out), nobody holding the lock
        let idle = cell.pending.load(Ordering::Acquire) == 0;
        let (job, block) = match idle.then(|| cell.domain.try_lock()).flatten() {
            None => (Job::Serve(op, reply, trace), block),
            // no room in the reply channel: the worker's to send, never shed
            Some(domain) => match serve(domain, op, reply, trace, false) {
                None => return Ok(true),
                Some(deliver) => (deliver, true),
            },
        };
        cell.pending.fetch_add(1, Ordering::AcqRel);
        let sent = match block {
            true => queue.send(job).map_err(|e| TrySendError::Disconnected(e.0)),
            false => queue.try_send(job),
        };
        if let Err(TrySendError::Full(_)) = sent {
            cell.pending.fetch_sub(1, Ordering::Release);
            return Ok(false);
        }
        let gone = |_| Error::InvalidState("controller worker pool gone".into());
        sent.map(|()| true).map_err(gone)
    }

    /// Sends a request to its owning domain: served before this returns
    /// if that domain is free, else enqueued, blocking while its queue
    /// is full.
    pub fn route(&self, req: Request) -> Result<()> {
        let (op, reply, trace) = req.into_parts();
        self.submit(op, reply, trace, true).map(drop)
    }
}

/// One domain as its routers and its queue's worker share it.
struct DomainCell {
    domain: Mutex<Domain>,
    /// Jobs queued and not done yet. While non-zero, later requests
    /// queue behind them, so one caller's requests are answered in the
    /// order it routed them. The shutdown sentinel is never subtracted.
    pending: AtomicUsize,
}

/// One domain: the lock its requests are served under. The state they
/// change is the seat's; a domain holds only its metrics.
struct Domain {
    shared: Arc<Shared>,
    wm: WorkerMetrics,
}

/// What every domain shares: the seat and telemetry.
pub(crate) struct Shared {
    /// The seat every request is proposed on: its log and the engine,
    /// behind the seat's one lock, taken for one proposal and never held
    /// across a fence or a send.
    pub(crate) seat: Arc<ReplicaNode>,
    /// This server's metric registry — per instance, so tests running
    /// many servers in parallel never see each other's numbers.
    pub(crate) telemetry: Arc<Registry>,
    /// Packet-in requests served (`softcell_controller_packet_in_total`).
    pub(crate) served: Arc<Counter>,
    /// Wire connections currently being served ([`crate::wire`]).
    pub(crate) active_connections: Arc<Gauge>,
    /// Wire connections that ended, cleanly or not.
    pub(crate) disconnects: Arc<Counter>,
    /// The subset of disconnects that ended with a channel error (torn
    /// frame, version mismatch, transport failure) rather than a clean
    /// peer close.
    pub(crate) connection_errors: Arc<Counter>,
    /// Packet-in events shed because a domain queue was full
    /// ([`crate::wire`] front-end; the queue-full path replies with an
    /// error instead of discarding invisibly).
    pub(crate) queue_rejected: Arc<Counter>,
    /// Simulated southbound install fence, in microseconds (benchmark
    /// knob, default 0). When set, a handler blocks this long wherever
    /// the real controller would wait for a switch to ack a rule
    /// install: per granted attach (the UE classifier lands at its
    /// access station) and per path request that queued rule ops.
    /// Domains overlap these waits — the scaling a sharded control plane
    /// buys when its bottleneck is fabric round trips, not CPU.
    install_latency_us: AtomicU64,
}

impl Shared {
    /// The simulated install fence: how long a handler sleeps (zero by
    /// default, which does not sleep), after its proposal returned.
    fn fence(&self) -> Duration {
        // softcell-lint: allow(atomics-order) -- pure config knob: a stale read only mistimes the simulated fence
        Duration::from_micros(self.install_latency_us.load(Ordering::Relaxed))
    }
}

/// A running front-end: N domains, one queue worker each, in front of
/// one seat.
pub struct ControllerServer {
    router: RequestRouter,
    workers: Vec<JoinHandle<()>>,
    /// What the domains share; the wire front-end ([`crate::wire`])
    /// serves connections over it.
    pub(crate) shared: Arc<Shared>,
}

impl ControllerServer {
    /// Starts `shards` domains, one request queue ([`DEFAULT_QUEUE_DEPTH`])
    /// and queue worker each, in front of a one-seat membership whose
    /// engine runs over `CellularParams::paper(4)` — 160 base stations,
    /// ids 0 to 159 — with `policy` and every subscriber provisioned.
    /// Each record commits as it is appended. Requests go through the
    /// [`RequestRouter`] ([`Self::router`]). Refuses 0 and more than
    /// 1 024 domains.
    pub fn start_sharded(
        policy: ServicePolicy,
        subscribers: impl IntoIterator<Item = SubscriberAttributes>,
        shards: usize,
    ) -> Result<ControllerServer> {
        let cfg = ReplicaConfig {
            id: ControllerId(0),
            quorum: 1,
            peer_deadline: Duration::ZERO,
            policy,
            subscribers: subscribers.into_iter().map(|s| (s.imsi, s)).collect(),
        };
        let seat = ReplicaNode::new(cfg, Membership::bootstrap(1)?, vec![None])?;
        ControllerServer::start(seat, shards)
    }

    /// Starts `shards` domains in front of `seat`, the one construction
    /// path: [`Self::start_sharded`] is its one-seat case. Refuses 0 and
    /// more than 1 024 domains.
    pub fn start(seat: Arc<ReplicaNode>, shards: usize) -> Result<ControllerServer> {
        if shards == 0 || shards > MAX_DOMAINS {
            let msg = format!("server takes 1 to {MAX_DOMAINS} shards, got {shards}");
            return Err(Error::Config(msg));
        }
        let telemetry = Registry::new();
        let shared = Arc::new(Shared {
            seat,
            served: telemetry.counter("softcell_controller_packet_in_total"),
            active_connections: telemetry.gauge("softcell_controller_active_connections"),
            disconnects: telemetry.counter("softcell_controller_disconnects_total"),
            connection_errors: telemetry.counter("softcell_controller_connection_errors_total"),
            queue_rejected: telemetry.counter("softcell_controller_server_queue_rejected_total"),
            install_latency_us: AtomicU64::new(0),
            telemetry,
        });
        let mut cells = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = bounded::<Job>(DEFAULT_QUEUE_DEPTH);
            let domain = Domain {
                shared: Arc::clone(&shared),
                wm: WorkerMetrics::new(&shared.telemetry, shard),
            };
            let (domain, pending) = (Mutex::new(domain), AtomicUsize::new(0));
            let cell = Arc::new(DomainCell { domain, pending });
            cells.push((tx, Arc::clone(&cell)));
            workers.push(std::thread::spawn(move || worker_loop(rx, &cell)));
        }
        let cells = Arc::from(cells);
        Ok(ControllerServer {
            router: RequestRouter { cells },
            workers,
            shared,
        })
    }
    /// Sets the simulated per-install switch round trip the workers
    /// block on (benchmark knob; zero disables, the default).
    pub fn set_install_latency(&self, d: Duration) {
        self.shared
            .install_latency_us
            // softcell-lint: allow(atomics-order) -- pure config knob: no reader orders other memory against it
            .store(d.as_micros() as u64, Ordering::Relaxed);
    }

    /// A router sending each request to its owning domain (cloneable
    /// across client threads).
    pub fn router(&self) -> RequestRouter {
        self.router.clone()
    }

    /// The seat this server proposes on.
    pub fn seat(&self) -> &Arc<ReplicaNode> {
        &self.shared.seat
    }

    /// This server's metric registry, for snapshot/export. Per instance:
    /// two servers in one process never share numbers.
    pub fn telemetry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.telemetry)
    }

    /// Requests served so far (thin shim over
    /// `softcell_controller_packet_in_total`).
    pub fn served(&self) -> u64 {
        self.shared.served.get()
    }

    /// Wire connections currently being served (thin shim over the
    /// `softcell_controller_active_connections` gauge).
    pub fn active_connections(&self) -> u64 {
        self.shared.active_connections.get()
    }

    /// Wire connections that have ended, cleanly or with an error (thin
    /// shim over `softcell_controller_disconnects_total`).
    pub fn disconnects(&self) -> u64 {
        self.shared.disconnects.get()
    }

    /// Wire connections that ended with a channel error rather than a
    /// clean close (thin shim over
    /// `softcell_controller_connection_errors_total`).
    pub fn connection_errors(&self) -> u64 {
        self.shared.connection_errors.get()
    }

    /// Packet-in events shed because a domain queue was full (thin shim
    /// over `softcell_controller_server_queue_rejected_total`).
    pub fn queue_rejected(&self) -> u64 {
        self.shared.queue_rejected.get()
    }

    /// Stops the workers and waits for them. Robust against outstanding
    /// cloned routers: every domain gets one shutdown sentinel.
    pub fn shutdown(self) {
        for (queue, cell) in self.router.cells.iter() {
            cell.pending.fetch_add(1, Ordering::AcqRel);
            let _ = queue.send(Job::Shutdown);
        }
        drop(self.router);
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Per-domain telemetry handles, interned once at start so serving a
/// request touches only atomics; one family per domain.
struct WorkerMetrics {
    /// `softcell_controller_shard_served_total{shard=i}`.
    served: Arc<Counter>,
    /// `softcell_controller_shard_queued_total{shard=i}` — of those, the
    /// ones that waited in the queue (a routing thread served the rest).
    queued: Arc<Counter>,
    /// `softcell_controller_packet_in_latency_ns` — service time under
    /// the domain lock, all domains into one histogram.
    latency: Arc<Histogram>,
    /// `softcell_controller_shard_queue_depth_hwm{shard=i}` — high-water
    /// mark of requests waiting behind the one being served.
    queue_hwm: Arc<Gauge>,
    /// `softcell_controller_path_cache_hits_total{shard=i}`.
    path_hits: Arc<Counter>,
    /// `softcell_controller_path_cache_misses_total{shard=i}`.
    path_misses: Arc<Counter>,
    /// The shard index, stamped onto trace spans.
    shard: usize,
}

impl WorkerMetrics {
    fn new(registry: &Registry, shard: usize) -> WorkerMetrics {
        let label = format!("shard={shard}");
        WorkerMetrics {
            shard,
            served: registry.counter_with("softcell_controller_shard_served_total", &label),
            queued: registry.counter_with("softcell_controller_shard_queued_total", &label),
            latency: registry.histogram("softcell_controller_packet_in_latency_ns"),
            queue_hwm: registry.gauge_with("softcell_controller_shard_queue_depth_hwm", &label),
            path_hits: registry.counter_with("softcell_controller_path_cache_hits_total", &label),
            path_misses: registry
                .counter_with("softcell_controller_path_cache_misses_total", &label),
        }
    }
}

/// Serves one request under `domain`'s lock: the per-kind span (the
/// handler's own spans — the proposal's — nest in it via the
/// thread-local context), the proposal, the counters. A request that
/// `waited` in the queue is counted as such and, when traced, closes
/// the cross-thread queue_wait interval stamped at enqueue. The answer
/// leaves once the domain is released, and only the worker waits for
/// room in `reply`: a routing thread may be the one draining that
/// channel, so it gets the send back as a job for the worker instead.
fn serve(
    domain: MutexGuard<'_, Domain>,
    op: PacketIn,
    reply: Sender<Result<Committed>>,
    rt: ReqTrace,
    waited: bool,
) -> Option<Job> {
    let kind = match op {
        PacketIn::Attach { .. } => "handle_attach",
        PacketIn::Detach { .. } => "handle_detach",
        PacketIn::PathRequest { .. } => "handle_path_tag",
    };
    let sw = Stopwatch::start();
    let tracer = Registry::global().tracer();
    let shard = domain.wm.shard;
    if waited {
        domain.wm.queued.inc();
        if rt.ctx.is_active() {
            let now = trace::now_us();
            tracer.record_span(rt.ctx, "queue_wait", rt.enqueued_us, now, shard as i64, 0);
        }
    }
    let mut sp = tracer.span_in(rt.ctx, kind);
    sp.set_shard(shard);
    let out = domain.propose(op);
    // count before the answer leaves so a client that has it never
    // observes a stale served() total
    domain.shared.served.inc();
    domain.wm.served.inc();
    sw.record(&domain.wm.latency);
    drop((sp, domain));
    match reply.try_send(out) {
        Err(TrySendError::Full(out)) if waited => drop(reply.send(out)),
        Err(TrySendError::Full(out)) => {
            return Some(Job::Deliver(Box::new(move || drop(reply.send(out)))))
        }
        _ => {}
    }
    None
}

impl Domain {
    /// Proposes `op` on the seat, then sleeps through the install fence
    /// when the answer lands rules on a switch: a granted attach always
    /// (its classifier lands at the access station), a path request
    /// only when it queued rule ops, which is what makes it a cache
    /// miss.
    fn propose(&self, op: PacketIn) -> Result<Committed> {
        let c = self.shared.seat.propose(op)?;
        let fence = match op {
            PacketIn::Attach { .. } => true,
            PacketIn::Detach { .. } => false,
            PacketIn::PathRequest { .. } => {
                let counter = if c.queued {
                    &self.wm.path_misses
                } else {
                    &self.wm.path_hits
                };
                counter.inc();
                c.queued
            }
        };
        if fence {
            std::thread::sleep(self.shared.fence());
        }
        Ok(c)
    }
}

/// Drains one domain's queue, taking the domain's lock per request.
fn worker_loop(rx: Receiver<Job>, cell: &DomainCell) {
    while let Ok(job) = rx.recv() {
        match job {
            Job::Serve(op, reply, trace) => {
                let domain = cell.domain.lock();
                // requests still queued behind the one just taken
                domain.wm.queue_hwm.record_max(rx.len() as u64);
                serve(domain, op, reply, trace, true);
            }
            Job::Deliver(send) => send(),
            Job::Shutdown => break,
        }
        cell.pending.fetch_sub(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{AttachGrant, PathTags};
    use crate::input::Output;
    use crossbeam::channel::bounded;

    /// The permitted clause a parked domain's path request names.
    const PARK: ClauseId = ClauseId(0);

    fn subscribers(n: u64) -> Vec<SubscriberAttributes> {
        (0..n)
            .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
            .collect()
    }

    fn grant(c: Committed) -> AttachGrant {
        match c.out {
            Output::Attached(grant) => grant,
            other => panic!("an attach answered with {other:?}"),
        }
    }

    fn tags(c: Committed) -> PathTags {
        match c.out {
            Output::Path(tags) => tags,
            other => panic!("a path request answered with {other:?}"),
        }
    }

    fn server(subs: u64, shards: usize) -> ControllerServer {
        ControllerServer::start_sharded(
            ServicePolicy::example_carrier_a(1),
            subscribers(subs),
            shards,
        )
        .unwrap()
    }

    /// An attach of `imsi` at a location of its own, answered into `reply`.
    fn attach(imsi: u64, reply: &Sender<Result<Committed>>) -> Request {
        Request::Attach {
            imsi: UeImsi(imsi),
            bs: BaseStationId((imsi % 7) as u32),
            ue_id: UeId((imsi / 7) as u16),
            now: SimTime::ZERO,
            reply: reply.clone(),
            trace: ReqTrace::NONE,
        }
    }

    fn path(bs: BaseStationId, clause: ClauseId, reply: &Sender<Result<Committed>>) -> Request {
        Request::PathTag {
            bs,
            clause,
            reply: reply.clone(),
            trace: ReqTrace::NONE,
        }
    }

    /// The first station from 100 on that `shard` of `n` owns.
    fn station_of(shard: usize, n: usize) -> BaseStationId {
        let bs = (100..).find(|bs| shard_of_station(BaseStationId(*bs), n) == shard);
        BaseStationId(bs.unwrap())
    }

    #[test]
    fn classifier_requests_round_trip() {
        let server = server(10, 2);
        let (tx, rx) = bounded(1);
        server.router().route(attach(3, &tx)).unwrap();
        let grant = grant(rx.recv().unwrap().unwrap());
        assert!(!grant.classifier.entries().is_empty());
        assert_eq!(server.served(), 1);
        server.shutdown();
    }

    #[test]
    fn unknown_subscriber_errors() {
        let server = server(1, 1);
        let (tx, rx) = bounded(1);
        server.router().route(attach(99, &tx)).unwrap();
        assert!(rx.recv().unwrap().is_err());
        server.shutdown();
    }

    #[test]
    fn path_tags_are_stable_per_station_clause() {
        let server = server(1, 4);
        let router = server.router();
        let ask = |bs: u32, clause: u16| {
            let (tx, rx) = bounded(1);
            router
                .route(path(BaseStationId(bs), ClauseId(clause), &tx))
                .unwrap();
            rx.recv().unwrap().map(tags)
        };
        let t1 = ask(5, 0).unwrap();
        assert_eq!(ask(5, 0).unwrap(), t1, "idempotent per (bs, clause)");
        // the engine's answer: an installed path's own tags
        let routed = server
            .seat()
            .read(|c| c.routed_path(BaseStationId(5), ClauseId(0)).is_some());
        assert!(routed, "the path is installed");
        assert!(
            matches!(ask(5, 1), Err(Error::InvalidState(_))),
            "a denying clause has no path"
        );
        server.shutdown();
    }

    #[test]
    fn many_threads_many_requests() {
        let server = server(100, 4);
        let router = server.router();
        let clients: Vec<_> = (0..4)
            .map(|c| {
                let router = router.clone();
                std::thread::spawn(move || {
                    let (tx, rx) = bounded(1);
                    for i in 0..250u64 {
                        let imsi = (c * 25 + i) % 100;
                        let op = PacketIn::Detach { imsi: UeImsi(imsi) };
                        assert_eq!(router.shard_of(&op), shard_of_ue(UeImsi(imsi), 4));
                        router.route(attach(imsi, &tx)).unwrap();
                        rx.recv().unwrap().unwrap();
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        assert_eq!(server.served(), 1000);
        assert_eq!(server.seat().read(|c| c.state().attached_count()), 100);
        server.shutdown();
    }

    #[test]
    fn sharded_server_routes_by_key_and_round_trips() {
        let server = server(32, 4);
        assert_eq!(server.router.cells.len(), 4);
        let router = server.router();

        // attach every subscriber through the router; the engine's one
        // pool gives pairwise distinct addresses whichever domain asks
        let (tx, rx) = bounded(1);
        let mut ips = std::collections::HashSet::new();
        for i in 0..32u64 {
            router.route(attach(i, &tx)).unwrap();
            let grant = grant(rx.recv().unwrap().unwrap());
            assert!(!grant.classifier.entries().is_empty());
            assert!(ips.insert(grant.record.permanent_ip), "duplicate address");
        }

        // detach releases records; a second detach fails
        let (dtx, drx) = bounded(1);
        let detach = || Request::Detach {
            imsi: UeImsi(3),
            reply: dtx.clone(),
            trace: ReqTrace::NONE,
        };
        router.route(detach()).unwrap();
        let Output::Detached(rec) = drx.recv().unwrap().unwrap().out else {
            panic!("a detach answers with the record")
        };
        assert!(ips.contains(&rec.permanent_ip));
        router.route(detach()).unwrap();
        assert!(drx.recv().unwrap().is_err(), "double detach fails");
        server.shutdown();
    }

    #[test]
    fn sharded_addresses_stay_unique_under_churn() {
        // attach/detach churn across many UEs drives the engine's pool
        // through release and reuse; no two concurrently attached UEs
        // may ever share a permanent address
        let server = server(256, 4);
        let router = server.router();
        let (atx, arx) = bounded(1);
        let (dtx, drx) = bounded(1);
        let mut live: std::collections::HashMap<u64, std::net::Ipv4Addr> = Default::default();
        for round in 0..8u64 {
            for i in 0..256u64 {
                if (i + round) % 3 == 0 {
                    if live.contains_key(&i) {
                        router
                            .route(Request::Detach {
                                imsi: UeImsi(i),
                                reply: dtx.clone(),
                                trace: ReqTrace::NONE,
                            })
                            .unwrap();
                        drx.recv().unwrap().unwrap();
                        live.remove(&i);
                    }
                } else if !live.contains_key(&i) {
                    router.route(attach(i, &atx)).unwrap();
                    let ip = grant(arx.recv().unwrap().unwrap()).record.permanent_ip;
                    assert!(
                        !live.values().any(|v| *v == ip),
                        "round {round}: {ip} live twice"
                    );
                    live.insert(i, ip);
                }
            }
        }
        server.shutdown();
    }

    #[test]
    fn pipelining_onto_a_small_reply_channel_never_blocks_the_caller() {
        // three requests routed before any answer is read, one slot to
        // answer into: this thread serves the first two, finds no room
        // for the second answer and leaves it to the worker — blocking
        // on a channel only this thread reads would be the end of it
        let server = server(4, 1);
        let router = server.router();
        let (tx, rx) = bounded(1);
        for i in 0..3 {
            router.route(attach(i, &tx)).unwrap();
        }
        for _ in 0..3 {
            rx.recv().unwrap().unwrap();
        }
        let queued = shard_counter(&server, "softcell_controller_shard_queued_total", 0);
        assert_eq!((server.served(), queued), (3, 1), "the third queued");
        server.shutdown();
    }

    #[test]
    fn an_answer_from_another_domain_never_blocks_the_routing_thread() {
        // One caller, one slot to answer into, two requests outstanding
        // on two domains. The first queues behind a fenced miss; while
        // this thread sits in a longer fence serving the second on the
        // free domain, the first one's worker fills the slot. A routing
        // thread that waited for room would wait for itself, for ever
        // (scripts/ci.sh runs this suite under `timeout`).
        let server = server(1, 2);
        server.set_install_latency(Duration::from_millis(50));
        let router = server.router();
        let (tx, rx) = bounded(1);
        let parked = park_domain(&server, station_of(0, 2), 0);
        router.route(path(station_of(0, 2), PARK, &tx)).unwrap();
        server.set_install_latency(Duration::from_millis(150));
        router.route(path(station_of(1, 2), PARK, &tx)).unwrap();
        assert_eq!(tags(rx.recv().unwrap().unwrap()), parked.join().unwrap());
        rx.recv().unwrap().unwrap();
        const QUEUED: &str = "softcell_controller_shard_queued_total";
        let queued = [0, 1].map(|shard| shard_counter(&server, QUEUED, shard));
        assert_eq!((server.served(), queued), (3, [1, 0]));
        server.shutdown();
    }

    #[test]
    fn dropping_the_server_and_its_routers_stops_the_workers() {
        let server = server(1, 2);
        let router = server.router();
        let cell = Arc::downgrade(&router.cells[0].1);
        drop(server);
        assert!(cell.upgrade().is_some(), "a router keeps the domains up");
        drop(router);
        // the queues disconnect, each worker returns and lets go of its
        // domain (a worker that never did would hang this test)
        while cell.upgrade().is_some() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn zero_shards_rejected() {
        assert!(ControllerServer::start_sharded(
            ServicePolicy::example_carrier_a(1),
            subscribers(1),
            0
        )
        .is_err());
    }

    #[test]
    fn more_shards_than_worker_threads_allowed_rejected() {
        // one worker thread per domain: the bound is checked before any
        // thread starts
        let err = ControllerServer::start_sharded(
            ServicePolicy::example_carrier_a(1),
            subscribers(1),
            MAX_DOMAINS + 1,
        );
        assert!(matches!(err, Err(Error::Config(_))));
    }

    fn shard_counter(server: &ControllerServer, name: &str, shard: usize) -> u64 {
        server
            .telemetry()
            .counter_with(name, &format!("shard={shard}"))
            .get()
    }

    /// Parks domain `shard` from another thread: a path request for
    /// (`bs`, [`PARK`]), which must be new to the engine, served on that
    /// thread, asleep in the install fence with the domain held. Returns
    /// once the miss is counted, which happens under the domain lock just
    /// ahead of the fence.
    fn park_domain(
        server: &ControllerServer,
        bs: BaseStationId,
        shard: usize,
    ) -> std::thread::JoinHandle<PathTags> {
        const MISSES: &str = "softcell_controller_path_cache_misses_total";
        let before = shard_counter(server, MISSES, shard);
        let router = server.router();
        assert_eq!(shard_of_station(bs, router.cells.len()), shard);
        let parked = std::thread::spawn(move || {
            let (tx, rx) = bounded(1);
            router.route(path(bs, PARK, &tx)).unwrap();
            tags(rx.recv().unwrap().unwrap())
        });
        while shard_counter(server, MISSES, shard) == before {
            std::thread::yield_now();
        }
        parked
    }

    #[test]
    fn full_domain_queue_sheds_then_recovers() {
        let server = server(1, 1);
        server.set_install_latency(Duration::from_millis(200));
        let router = server.router();
        let (tx, rx) = bounded(DEFAULT_QUEUE_DEPTH + 1);
        let ask = || {
            let op = PacketIn::PathRequest {
                bs: BaseStationId(5),
                clause: PARK,
            };
            router.submit(op, tx.clone(), ReqTrace::NONE, false)
        };
        // a second thread's miss holds the only domain through the
        // install fence; the worker takes the first request off the
        // queue and waits for the lock, and nothing drains the rest
        let parked = park_domain(&server, BaseStationId(5), 0);
        assert!(ask().unwrap(), "busy domain: queued");
        while !router.cells[0].0.is_empty() {
            std::thread::yield_now();
        }
        for i in 1..=DEFAULT_QUEUE_DEPTH {
            assert!(ask().unwrap(), "request {i} fits");
        }
        assert!(!ask().unwrap(), "queue full: shed");

        // after the fence every accepted request is answered, all alike
        let parked_tags = parked.join().unwrap();
        for _ in 0..=DEFAULT_QUEUE_DEPTH {
            assert_eq!(tags(rx.recv().unwrap().unwrap()), parked_tags);
        }
        assert!(rx.try_recv().is_err(), "the shed request got no answer");
        let hwm = server
            .telemetry()
            .gauge_with("softcell_controller_shard_queue_depth_hwm", "shard=0")
            .get();
        assert!(hwm >= DEFAULT_QUEUE_DEPTH as u64 - 1, "hwm {hwm}");
        let queued = shard_counter(&server, "softcell_controller_shard_queued_total", 0);
        assert_eq!(queued, DEFAULT_QUEUE_DEPTH as u64 + 1);
        assert_eq!(
            server.served(),
            queued + 1,
            "all but the parking miss queued"
        );
        assert!(ask().unwrap(), "drained queue accepts");
        assert_eq!(tags(rx.recv().unwrap().unwrap()), parked_tags);
        server.shutdown();
    }

    #[test]
    fn inline_and_queued_requests_agree() {
        // One request sequence, answered once on the routing thread
        // (every domain free) and once through the queues (every domain
        // held by a fenced miss while the whole sequence is routed).
        fn run(queued: bool) -> (Vec<String>, Vec<u64>) {
            let server = server(16, 2);
            server.set_install_latency(Duration::from_millis(50));
            let router = server.router();
            // two subscribers of one domain, so the second attach draws
            // the address the first one's detach released
            let mut same = (0..16).filter(|i| shard_of_ue(UeImsi(*i), 2) == 0);
            let (ue_a, ue_b) = (same.next().unwrap(), same.next().unwrap());
            let mut held: Vec<_> = (0..2)
                .map(|shard| park_domain(&server, station_of(shard, 2), shard))
                .collect();
            if !queued {
                held.drain(..).for_each(|h| h.join().map(drop).unwrap());
            }

            let (atx, arx) = bounded(8);
            let (ttx, trx) = bounded(8);
            let (dtx, drx) = bounded(8);
            let attach = |imsi: u64, bs: u32, now: u64| Request::Attach {
                imsi: UeImsi(imsi),
                bs: BaseStationId(bs),
                ue_id: UeId(7),
                now: SimTime(now),
                reply: atx.clone(),
                trace: ReqTrace::NONE,
            };
            let path = |bs: u32, clause: u16| path(BaseStationId(bs), ClauseId(clause), &ttx);
            let detach = |imsi: u64| Request::Detach {
                imsi: UeImsi(imsi),
                reply: dtx.clone(),
                trace: ReqTrace::NONE,
            };
            // the engine's answers: the records' indices follow the
            // order the domains served them in, which the queues change
            let got = |rx: &Receiver<Result<Committed>>| {
                format!("{:?}", rx.recv().unwrap().map(|c| c.out))
            };
            let got_attach = || got(&arx);
            let got_path = || got(&trx);
            let got_detach = || got(&drx);
            let sequence: [(Request, &dyn Fn() -> String); 9] = [
                (attach(ue_a, 3, 10), &got_attach),
                (attach(ue_a, 3, 20), &got_attach),
                (attach(ue_a, 4, 25), &got_attach),
                (path(5, 0), &got_path),
                (path(5, 2), &got_path),
                (path(5, 0), &got_path),
                (detach(ue_a), &got_detach),
                (detach(ue_a), &got_detach),
                (attach(ue_b, 3, 30), &got_attach),
            ];
            // answers in routing order: each reply channel here is fed
            // by one domain, and a domain is FIFO whichever thread
            // serves it
            let (mut answers, mut later) = (Vec::new(), Vec::new());
            for (req, got) in sequence {
                router.route(req).unwrap();
                match queued {
                    true => later.push(got),
                    false => answers.push(got()),
                }
            }
            for h in held {
                h.join().unwrap();
            }
            answers.extend(later.into_iter().map(|got| got()));

            let mut counts = vec![server.served()];
            for shard in 0..2 {
                for name in [
                    "softcell_controller_shard_served_total",
                    "softcell_controller_path_cache_hits_total",
                    "softcell_controller_path_cache_misses_total",
                ] {
                    counts.push(shard_counter(&server, name, shard));
                }
            }
            let went_queued: u64 = (0..2)
                .map(|s| shard_counter(&server, "softcell_controller_shard_queued_total", s))
                .sum();
            assert_eq!(went_queued, if queued { 9 } else { 0 });
            server.shutdown();
            (answers, counts)
        }
        let (inline, queued) = (run(false), run(true));
        assert_eq!(inline, queued);
        assert_eq!(inline.1[0], 11, "two holders and the sequence");
        assert_eq!(
            inline.0[1], inline.0[0],
            "an attach in place returns the record"
        );
        assert!(
            inline.0[2].contains("InvalidState"),
            "an attach elsewhere fails"
        );
        assert_eq!(inline.0[5], inline.0[3], "a path's tags are stable");
        assert!(inline.0[7].contains("NotFound"), "double detach fails");
        let ip = |answer: &str| -> Option<String> {
            let rest = answer.split("permanent_ip: ").nth(1)?;
            Some(rest.split(',').next()?.to_string())
        };
        assert!(ip(&inline.0[0]).is_some());
        assert_eq!(
            ip(&inline.0[8]),
            ip(&inline.0[0]),
            "released address is drawn again"
        );
    }

    #[test]
    fn queue_wait_is_recorded_only_for_a_request_that_queued() {
        let tracer = Registry::global().tracer();
        tracer.set_sampling(1, softcell_telemetry::DEFAULT_SLOW_US);
        let server = server(1, 1);
        server.set_install_latency(Duration::from_millis(50));
        let router = server.router();
        let (tx, rx) = bounded(1);
        let traced = |held: bool| {
            let parked = held.then(|| park_domain(&server, BaseStationId(6), 0));
            let root = tracer.root("test_path_request");
            let trace_id = root.ctx().trace_id;
            router
                .route(Request::PathTag {
                    bs: BaseStationId(5),
                    clause: ClauseId(0),
                    reply: tx.clone(),
                    trace: ReqTrace::at_enqueue(root.ctx()),
                })
                .unwrap();
            rx.recv().unwrap().unwrap();
            drop(root);
            parked.map(|p| p.join().unwrap());
            let kinds: Vec<_> = tracer
                .records()
                .iter()
                .filter(|r| r.trace_id == trace_id)
                .map(|r| r.kind)
                .collect();
            assert!(kinds.contains(&"handle_path_tag"), "{kinds:?}");
            kinds.contains(&"queue_wait")
        };
        assert!(
            !traced(false),
            "served on the routing thread: no queue_wait"
        );
        assert!(traced(true), "queued behind the fenced miss: queue_wait");
        server.shutdown();
    }
}
