//! Threaded controller front-end for the §6.2 micro-benchmarks.
//!
//! The paper benchmarks its Floodlight-based controller with Cbench: 1000
//! emulated switches (= local agents) flood packet-in events and the
//! controller answers with packet classifiers, reaching 2.2 M
//! requests/second with 15 threads. [`ControllerServer`] is the Rust
//! analogue: N domains computing per-UE classifiers (attach handling)
//! and policy-tag answers (path requests).
//!
//! A domain is a *lock*, not a thread. The one invariant: every piece
//! of mutable front-end state lives in the domain its key routes to, one
//! writer at a time. The [`RequestRouter`] sends every request to the
//! domain owning its key — UE-scoped requests by [`shard_of_ue`],
//! station-scoped ones by [`shard_of_station`] — and the routing thread
//! serves it there and then when that domain is free: nothing queued
//! ahead, nobody holding the lock. Otherwise the request waits in the
//! domain's bounded queue, whose worker takes the same lock per request.
//! Either way the answer is computed under the lock and delivered after
//! it is released. The finite identifier spaces (policy tags, permanent
//! addresses) are split statically: domain d of N draws from its own
//! slice `[d·S/N, (d+1)·S/N)` of each, through an [`IdPool`] it owns.
//! What stays shared is immutable (policy, subscriber base) or
//! telemetry.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::{Mutex, MutexGuard};

use softcell_policy::clause::ClauseId;
use softcell_policy::{AppClassifier, ServicePolicy, SubscriberAttributes, UeClassifier};
use softcell_telemetry::{trace, Counter, Gauge, Histogram, Registry, ReqTrace, Stopwatch};
use softcell_types::{
    shard_of_station, shard_of_ue, BaseStationId, Error, IdPool, PolicyTag, Result, SimTime, UeId,
    UeImsi,
};

use crate::core::AttachGrant;
use crate::state::UeRecord;

/// Default request-queue depth. Bounded so a flood of packet-in events
/// exerts backpressure on agents instead of growing controller memory
/// without limit (the paper's Cbench setup saturates the controller the
/// same way).
pub const DEFAULT_QUEUE_DEPTH: usize = 4096;

/// Base of the permanent-address pool wire attaches allocate from
/// (100.64.0.0/10, matching [`crate::core::ControllerConfig::simulation`]).
pub(crate) const PERMANENT_POOL_BASE: u32 = 0x6440_0000;

/// Size of the permanent-address offset space the domains split.
const PERMANENT_SPACE: u32 = 1 << 20;

/// Size of the policy-tag space the domains split.
const TAG_SPACE: u32 = 1024;

/// Domain `d` of `n`'s static slice `[d·S/n, (d+1)·S/n)` of an id space
/// of size `S`: its first id, and a pool over its width.
fn slice(space: u32, d: usize, n: usize) -> (u32, IdPool) {
    let bound = |i: usize| (u64::from(space) * i as u64 / n as u64) as u32;
    (bound(d), IdPool::new(bound(d + 1) - bound(d)))
}

/// A request from a local agent.
pub enum Request {
    /// A UE attached over the wire, an upsert by IMSI: allocate (or keep)
    /// its permanent address, record its location, return the grant.
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
        reply: Sender<Result<AttachGrant>>,
        /// Trace context + enqueue stamp ([`ReqTrace::NONE`]: untraced).
        trace: ReqTrace,
    },
    /// A UE detached over the wire: drop its record (returning it) and
    /// release its permanent address to the owning domain's pool.
    Detach {
        /// The subscriber.
        imsi: UeImsi,
        /// Where to send the answer.
        reply: Sender<Result<UeRecord>>,
        /// Trace context + enqueue stamp.
        trace: ReqTrace,
    },
    /// A tag-cache miss: return (installing if needed) the policy tag of
    /// a (base station, clause) path.
    PathTag {
        /// Origin station.
        bs: BaseStationId,
        /// The clause.
        clause: ClauseId,
        /// Where to send the answer.
        reply: Sender<Result<PolicyTag>>,
        /// Trace context + enqueue stamp.
        trace: ReqTrace,
    },
}

/// What waits in a domain's queue.
enum Job {
    Serve(Request),
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
    /// Number of domains this router spreads requests over.
    pub fn domains(&self) -> usize {
        self.cells.len()
    }

    /// The domain a request belongs to.
    pub fn shard_of(&self, req: &Request) -> usize {
        let n = self.cells.len();
        match req {
            Request::Attach { imsi, .. } | Request::Detach { imsi, .. } => shard_of_ue(*imsi, n),
            Request::PathTag { bs, .. } => shard_of_station(*bs, n),
        }
    }

    /// Serves `req` on the calling thread if its domain is free, else
    /// enqueues it, waiting for room when `block`. `Ok(false)`: the
    /// queue was full and `req` was shed.
    fn submit(&self, req: Request, block: bool) -> Result<bool> {
        let (queue, cell) = &self.cells[self.shard_of(&req)];
        // free: nothing queued ahead (Acquire pairs with `worker_loop`'s
        // Release, after an answer is out), nobody holding the lock
        let idle = cell.pending.load(Ordering::Acquire) == 0;
        let (job, block) = match idle.then(|| cell.domain.try_lock()).flatten() {
            None => (Job::Serve(req), block),
            // no room in the reply channel: the worker's to send, never shed
            Some(domain) => match serve(domain, req, false) {
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
        self.submit(req, true).map(drop)
    }

    /// Non-blocking route: `Ok(true)` served or enqueued, `Ok(false)` the
    /// owning domain is busy and its queue full, so the request was shed
    /// (the caller must account for it — see the wire front-end's
    /// `server_queue_rejected` counter), `Err` the pool is gone.
    pub fn try_route(&self, req: Request) -> Result<bool> {
        self.submit(req, false)
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

/// One domain's state: its UE and path maps (routing gives it every
/// IMSI and (bs, clause) key it is ever asked about, the lock one writer
/// at a time) and its slices of the tag and permanent-address spaces.
struct Domain {
    /// UE records registered over the wire front-end ([`crate::wire`]).
    ues: std::collections::HashMap<UeImsi, UeRecord>,
    /// (bs, clause) → tag. Path installation stand-in: allocate a tag and
    /// record the path. (Algorithm 1 runs in [`crate::sharded`]; this
    /// server measures request fan-in, the paper's bottleneck here.)
    paths: std::collections::HashMap<(BaseStationId, ClauseId), PolicyTag>,
    /// First tag of this domain's slice, and the pool over the slice.
    tag_base: u32,
    tags: IdPool,
    /// First permanent-address offset of this domain's slice, and the
    /// pool over the slice.
    permanent_base: u32,
    permanent: IdPool,
    shared: Arc<Shared>,
    wm: WorkerMetrics,
}

/// Controller state every domain reads: configuration (fixed at start)
/// and telemetry.
pub(crate) struct Shared {
    policy: ServicePolicy,
    apps: AppClassifier,
    subscribers: std::collections::HashMap<UeImsi, SubscriberAttributes>,
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
    /// Ticket counter stamped onto `flow_mod_batch` replies
    /// ([`crate::wire`]).
    pub(crate) batch_seq: AtomicU64,
    /// Simulated southbound install fence, in microseconds (benchmark
    /// knob, default 0). When set, a worker blocks this long wherever
    /// the real controller would wait for a switch to ack a rule
    /// install: per attach (the UE classifier lands at its access
    /// station) and per path-tag miss (the path's rules land in the
    /// fabric). Domains overlap these waits — the scaling a sharded
    /// control plane buys when its bottleneck is fabric round trips,
    /// not CPU.
    install_latency_us: AtomicU64,
}

impl Shared {
    fn install_fence(&self) {
        // softcell-lint: allow(atomics-order) -- pure config knob: a stale read only mistimes the simulated fence
        let us = self.install_latency_us.load(Ordering::Relaxed);
        if us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
    }
}

/// A running front-end: N domains, one queue worker each.
pub struct ControllerServer {
    router: RequestRouter,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl ControllerServer {
    /// Starts `shards` domains over the given policy and subscriber
    /// base, one request queue ([`DEFAULT_QUEUE_DEPTH`]) and queue worker
    /// each. Requests are submitted through the [`RequestRouter`]
    /// ([`Self::router`]) so every key reaches its owning domain.
    pub fn start_sharded(
        policy: ServicePolicy,
        subscribers: impl IntoIterator<Item = SubscriberAttributes>,
        shards: usize,
    ) -> Result<ControllerServer> {
        if shards == 0 || shards > TAG_SPACE as usize {
            // every domain needs at least one tag of its own
            let msg = format!("server takes 1 to {TAG_SPACE} shards, got {shards}");
            return Err(Error::Config(msg));
        }
        let telemetry = Registry::new();
        let shared = Arc::new(Shared {
            policy,
            apps: AppClassifier::default(),
            subscribers: subscribers.into_iter().map(|a| (a.imsi, a)).collect(),
            served: telemetry.counter("softcell_controller_packet_in_total"),
            active_connections: telemetry.gauge("softcell_controller_active_connections"),
            disconnects: telemetry.counter("softcell_controller_disconnects_total"),
            connection_errors: telemetry.counter("softcell_controller_connection_errors_total"),
            queue_rejected: telemetry.counter("softcell_controller_server_queue_rejected_total"),
            batch_seq: AtomicU64::new(0),
            install_latency_us: AtomicU64::new(0),
            telemetry,
        });
        let mut cells = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = bounded::<Job>(DEFAULT_QUEUE_DEPTH);
            let (tag_base, tags) = slice(TAG_SPACE, shard, shards);
            let (permanent_base, permanent) = slice(PERMANENT_SPACE, shard, shards);
            let domain = Domain {
                ues: std::collections::HashMap::new(),
                paths: std::collections::HashMap::new(),
                tag_base,
                tags,
                permanent_base,
                permanent,
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
    pub fn set_install_latency(&self, d: std::time::Duration) {
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

    /// Number of domains.
    pub fn domains(&self) -> usize {
        self.router.domains()
    }

    /// The shared state, for the wire front-end ([`crate::wire`]).
    pub(crate) fn shared_state(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
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
/// handler's own spans — install fences — nest in it via the
/// thread-local context), the handler `f`, the counters. A request that
/// `waited` in the queue is counted as such and, when traced, closes
/// the cross-thread queue_wait interval stamped at enqueue. The answer
/// leaves once the domain is released, and only the worker waits for
/// room in `reply`: a routing thread may be the one draining that
/// channel, so it gets the send back as a job for the worker instead.
fn run<R: Send + 'static>(
    mut domain: MutexGuard<'_, Domain>,
    kind: &'static str,
    rt: ReqTrace,
    waited: bool,
    reply: Sender<R>,
    f: impl FnOnce(&mut Domain) -> R,
) -> Option<Job> {
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
    let out = f(&mut domain);
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
    fn attach(
        &mut self,
        imsi: UeImsi,
        bs: BaseStationId,
        ue_id: UeId,
        now: SimTime,
    ) -> Result<AttachGrant> {
        let unknown = || Error::NotFound(format!("unknown subscriber {imsi}"));
        let attrs = self.shared.subscribers.get(&imsi).ok_or_else(unknown)?;
        let classifier = UeClassifier::compile(&self.shared.policy, &self.shared.apps, attrs);
        // permanent addresses never change (§3.1): a re-attach keeps the
        // one first assigned
        let permanent_ip = match self.ues.get(&imsi) {
            Some(r) => r.permanent_ip,
            // draw from this domain's slice — routing by imsi guarantees
            // the matching detach releases to the same pool
            None => {
                let full = || Error::Exhausted("permanent-address space".into());
                let off = self.permanent.allocate().ok_or_else(full)?;
                Ipv4Addr::from(PERMANENT_POOL_BASE + 1 + self.permanent_base + off)
            }
        };
        let record = UeRecord {
            imsi,
            permanent_ip,
            bs,
            ue_id,
            since: now,
        };
        self.ues.insert(imsi, record);
        // the classifier install at the access station fences
        self.shared.install_fence();
        Ok(AttachGrant { record, classifier })
    }

    fn detach(&mut self, imsi: UeImsi) -> Result<UeRecord> {
        let unknown = || Error::NotFound(format!("{imsi} not attached"));
        let record = self.ues.remove(&imsi).ok_or_else(unknown)?;
        let off = u32::from(record.permanent_ip) - PERMANENT_POOL_BASE - 1 - self.permanent_base;
        self.permanent.release(off);
        Ok(record)
    }

    fn path_tag(&mut self, bs: BaseStationId, clause: ClauseId) -> Result<PolicyTag> {
        // this domain owns every (bs, clause) it is ever asked about, so
        // the tag comes from its own slice
        if let Some(t) = self.paths.get(&(bs, clause)) {
            self.wm.path_hits.inc();
            return Ok(*t);
        }
        let full = || Error::Exhausted("policy-tag space".into());
        let v = self.tags.allocate().ok_or_else(full)?;
        self.wm.path_misses.inc();
        let t = PolicyTag((self.tag_base + v) as u16);
        self.paths.insert((bs, clause), t);
        // the path's fabric rules fence
        self.shared.install_fence();
        Ok(t)
    }
}

/// Serves `req` under its domain's lock, on whichever thread holds it.
fn serve(domain: MutexGuard<'_, Domain>, req: Request, waited: bool) -> Option<Job> {
    match req {
        Request::Attach {
            imsi,
            bs,
            ue_id,
            now,
            reply,
            trace,
        } => {
            let f = |d: &mut Domain| d.attach(imsi, bs, ue_id, now);
            run(domain, "handle_attach", trace, waited, reply, f)
        }
        Request::Detach { imsi, reply, trace } => {
            let f = |d: &mut Domain| d.detach(imsi);
            run(domain, "handle_detach", trace, waited, reply, f)
        }
        Request::PathTag {
            bs,
            clause,
            reply,
            trace,
        } => {
            let f = |d: &mut Domain| d.path_tag(bs, clause);
            run(domain, "handle_path_tag", trace, waited, reply, f)
        }
    }
}

/// Drains one domain's queue, taking the domain's lock per request.
fn worker_loop(rx: Receiver<Job>, cell: &DomainCell) {
    while let Ok(job) = rx.recv() {
        match job {
            Job::Serve(req) => {
                let domain = cell.domain.lock();
                // requests still queued behind the one just taken
                domain.wm.queue_hwm.record_max(rx.len() as u64);
                serve(domain, req, true);
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
    use crossbeam::channel::bounded;

    fn subscribers(n: u64) -> Vec<SubscriberAttributes> {
        (0..n)
            .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
            .collect()
    }

    fn server(subs: u64, shards: usize) -> ControllerServer {
        ControllerServer::start_sharded(
            ServicePolicy::example_carrier_a(1),
            subscribers(subs),
            shards,
        )
        .unwrap()
    }

    /// An attach of `imsi` at a station of its own, answered into `reply`.
    fn attach(imsi: u64, reply: &Sender<Result<AttachGrant>>) -> Request {
        Request::Attach {
            imsi: UeImsi(imsi),
            bs: BaseStationId((imsi % 7) as u32),
            ue_id: UeId(0),
            now: SimTime::ZERO,
            reply: reply.clone(),
            trace: ReqTrace::NONE,
        }
    }

    #[test]
    fn classifier_requests_round_trip() {
        let server = server(10, 2);
        let (tx, rx) = bounded(1);
        server.router().route(attach(3, &tx)).unwrap();
        let grant = rx.recv().unwrap().unwrap();
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
                .route(Request::PathTag {
                    bs: BaseStationId(bs),
                    clause: ClauseId(clause),
                    reply: tx,
                    trace: ReqTrace::NONE,
                })
                .unwrap();
            rx.recv().unwrap().unwrap()
        };
        let t1 = ask(5, 0);
        let t2 = ask(5, 0);
        let t3 = ask(6, 0);
        assert_eq!(t1, t2, "idempotent per (bs, clause)");
        let _ = t3;
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
                        let req = attach(imsi, &tx);
                        assert_eq!(router.shard_of(&req), shard_of_ue(UeImsi(imsi), 4));
                        router.route(req).unwrap();
                        rx.recv().unwrap().unwrap();
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        assert_eq!(server.served(), 1000);
        server.shutdown();
    }

    #[test]
    fn sharded_server_routes_by_key_and_round_trips() {
        let server = server(32, 4);
        assert_eq!(server.domains(), 4);
        let router = server.router();

        // attach every subscriber through the router; addresses must be
        // pairwise distinct even though four domains allocate them from
        // their own slices
        let (tx, rx) = bounded(1);
        let mut ips = std::collections::HashSet::new();
        for i in 0..32u64 {
            router
                .route(Request::Attach {
                    imsi: UeImsi(i),
                    bs: BaseStationId((i % 7) as u32),
                    ue_id: softcell_types::UeId(0),
                    now: SimTime::ZERO,
                    reply: tx.clone(),
                    trace: ReqTrace::NONE,
                })
                .unwrap();
            let grant = rx.recv().unwrap().unwrap();
            assert!(!grant.classifier.entries().is_empty());
            assert!(ips.insert(grant.record.permanent_ip), "duplicate address");
        }

        // path tags are stable per (bs, clause) and distinct across keys
        // within a domain
        let (ttx, trx) = bounded(1);
        let ask = |bs: u32, clause: u16| {
            router
                .route(Request::PathTag {
                    bs: BaseStationId(bs),
                    clause: ClauseId(clause),
                    reply: ttx.clone(),
                    trace: ReqTrace::NONE,
                })
                .unwrap();
            trx.recv().unwrap().unwrap()
        };
        let t1 = ask(5, 0);
        let t2 = ask(5, 0);
        assert_eq!(t1, t2, "idempotent per (bs, clause)");
        assert_ne!(ask(5, 1), t1, "distinct clause gets a distinct tag");

        // detach releases records; a re-attach then gets a fresh address
        let (dtx, drx) = bounded(1);
        router
            .route(Request::Detach {
                imsi: UeImsi(3),
                reply: dtx.clone(),
                trace: ReqTrace::NONE,
            })
            .unwrap();
        let rec = drx.recv().unwrap().unwrap();
        assert!(ips.contains(&rec.permanent_ip));
        router
            .route(Request::Detach {
                imsi: UeImsi(3),
                reply: dtx.clone(),
                trace: ReqTrace::NONE,
            })
            .unwrap();
        assert!(drx.recv().unwrap().is_err(), "double detach fails");
        server.shutdown();
    }

    #[test]
    fn sharded_addresses_stay_unique_under_churn() {
        // attach/detach churn across many UEs drives the per-domain
        // pools through release and reuse; no two concurrently attached
        // UEs may ever share a permanent address
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
                    router
                        .route(Request::Attach {
                            imsi: UeImsi(i),
                            bs: BaseStationId((i % 5) as u32),
                            ue_id: softcell_types::UeId(0),
                            now: SimTime(round),
                            reply: atx.clone(),
                            trace: ReqTrace::NONE,
                        })
                        .unwrap();
                    let grant = arx.recv().unwrap().unwrap();
                    let ip = grant.record.permanent_ip;
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
        server.set_install_latency(std::time::Duration::from_millis(50));
        let router = server.router();
        let station = |shard| {
            let bs = (100..).find(|bs| shard_of_station(BaseStationId(*bs), 2) == shard);
            BaseStationId(bs.unwrap())
        };
        let (tx, rx) = bounded(1);
        let ask = |bs| Request::PathTag {
            bs,
            clause: ClauseId(99),
            reply: tx.clone(),
            trace: ReqTrace::NONE,
        };
        let parked = park_domain(&server, station(0), 0);
        router.route(ask(station(0))).unwrap();
        server.set_install_latency(std::time::Duration::from_millis(150));
        router.route(ask(station(1))).unwrap();
        assert_eq!(rx.recv().unwrap().unwrap(), parked.join().unwrap());
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
    fn more_shards_than_tags_rejected() {
        // a domain's static slice of the tag space must not be empty
        let err = ControllerServer::start_sharded(
            ServicePolicy::example_carrier_a(1),
            subscribers(1),
            TAG_SPACE as usize + 1,
        );
        assert!(matches!(err, Err(Error::Config(_))));
    }

    fn shard_counter(server: &ControllerServer, name: &str, shard: usize) -> u64 {
        server
            .telemetry()
            .counter_with(name, &format!("shard={shard}"))
            .get()
    }

    /// Parks domain `shard` from another thread: a path-tag miss for
    /// `bs`, served on that thread, asleep in the install fence with the
    /// domain held. Returns once the miss is counted, which happens
    /// under the lock just ahead of the fence.
    fn park_domain(
        server: &ControllerServer,
        bs: BaseStationId,
        shard: usize,
    ) -> std::thread::JoinHandle<PolicyTag> {
        const MISSES: &str = "softcell_controller_path_cache_misses_total";
        let before = shard_counter(server, MISSES, shard);
        let router = server.router();
        assert_eq!(shard_of_station(bs, router.domains()), shard);
        let parked = std::thread::spawn(move || {
            let (tx, rx) = bounded(1);
            router
                .route(Request::PathTag {
                    bs,
                    clause: ClauseId(99),
                    reply: tx,
                    trace: ReqTrace::NONE,
                })
                .unwrap();
            rx.recv().unwrap().unwrap()
        });
        while shard_counter(server, MISSES, shard) == before {
            std::thread::yield_now();
        }
        parked
    }

    #[test]
    fn full_domain_queue_sheds_then_recovers() {
        let server = server(1, 1);
        server.set_install_latency(std::time::Duration::from_millis(200));
        let router = server.router();
        let (tx, rx) = bounded(DEFAULT_QUEUE_DEPTH + 1);
        let ask = || Request::PathTag {
            bs: BaseStationId(5),
            clause: ClauseId(99),
            reply: tx.clone(),
            trace: ReqTrace::NONE,
        };
        // a second thread's miss holds the only domain through the
        // install fence; the worker takes the first request off the
        // queue and waits for the lock, and nothing drains the rest
        let parked = park_domain(&server, BaseStationId(5), 0);
        assert!(router.try_route(ask()).unwrap(), "busy domain: queued");
        while !router.cells[0].0.is_empty() {
            std::thread::yield_now();
        }
        for i in 1..=DEFAULT_QUEUE_DEPTH {
            assert!(router.try_route(ask()).unwrap(), "request {i} fits");
        }
        assert!(!router.try_route(ask()).unwrap(), "queue full: shed");

        // after the fence every accepted request is answered, all alike
        let tag = parked.join().unwrap();
        for _ in 0..=DEFAULT_QUEUE_DEPTH {
            assert_eq!(rx.recv().unwrap().unwrap(), tag);
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
        assert!(router.try_route(ask()).unwrap(), "drained queue accepts");
        assert_eq!(rx.recv().unwrap().unwrap(), tag);
        server.shutdown();
    }

    #[test]
    fn inline_and_queued_requests_agree() {
        // One request sequence, answered once on the routing thread
        // (every domain free) and once through the queues (every domain
        // held by a fenced miss while the whole sequence is routed).
        fn run(queued: bool) -> (Vec<String>, Vec<u64>) {
            let server = server(16, 2);
            server.set_install_latency(std::time::Duration::from_millis(50));
            let router = server.router();
            // two subscribers of one domain, so the second attach draws
            // from the pool the first one's detach released into
            let mut same = (0..16).filter(|i| shard_of_ue(UeImsi(*i), 2) == 0);
            let (ue_a, ue_b) = (same.next().unwrap(), same.next().unwrap());
            let holders: Vec<BaseStationId> = (0..2)
                .map(|shard| {
                    let bs = (100..).find(|bs| shard_of_station(BaseStationId(*bs), 2) == shard);
                    BaseStationId(bs.unwrap())
                })
                .collect();
            let hold = || -> Vec<_> {
                let parked = holders.iter().enumerate();
                parked
                    .map(|(shard, bs)| park_domain(&server, *bs, shard))
                    .collect()
            };
            let mut held = hold();
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
            let path = |bs: u32, clause: u16| Request::PathTag {
                bs: BaseStationId(bs),
                clause: ClauseId(clause),
                reply: ttx.clone(),
                trace: ReqTrace::NONE,
            };
            let detach = |imsi: u64| Request::Detach {
                imsi: UeImsi(imsi),
                reply: dtx.clone(),
                trace: ReqTrace::NONE,
            };
            let got_attach = || format!("{:?}", arx.recv().unwrap());
            let got_path = || format!("{:?}", trx.recv().unwrap());
            let got_detach = || format!("{:?}", drx.recv().unwrap());
            let sequence: [(Request, &dyn Fn() -> String); 8] = [
                (attach(ue_a, 3, 10), &got_attach),
                (attach(ue_a, 4, 20), &got_attach),
                (path(5, 0), &got_path),
                (path(5, 1), &got_path),
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
            assert_eq!(went_queued, if queued { 8 } else { 0 });
            server.shutdown();
            (answers, counts)
        }
        let (inline, queued) = (run(false), run(true));
        assert_eq!(inline, queued);
        assert_eq!(inline.1[0], 10, "two holders and the sequence");
        assert!(inline.0[6].contains("NotFound"), "double detach fails");
        let ip = |answer: &str| -> Option<String> {
            let rest = answer.split("permanent_ip: ").nth(1)?;
            Some(rest.split(',').next()?.to_string())
        };
        assert!(ip(&inline.0[0]).is_some());
        assert_eq!(
            ip(&inline.0[1]),
            ip(&inline.0[0]),
            "re-attach keeps the address"
        );
        assert_eq!(
            ip(&inline.0[7]),
            ip(&inline.0[0]),
            "released address is drawn again"
        );
    }

    #[test]
    fn queue_wait_is_recorded_only_for_a_request_that_queued() {
        let tracer = Registry::global().tracer();
        tracer.set_sampling(1, softcell_telemetry::DEFAULT_SLOW_US);
        let server = server(1, 1);
        server.set_install_latency(std::time::Duration::from_millis(50));
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
