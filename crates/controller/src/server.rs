//! Threaded controller front-end for the §6.2 micro-benchmarks.
//!
//! The paper benchmarks its Floodlight-based controller with Cbench: 1000
//! emulated switches (= local agents) flood packet-in events and the
//! controller answers with packet classifiers, reaching 2.2 M
//! requests/second with 15 threads. [`ControllerServer`] is the Rust
//! analogue: N single-worker domains, one bounded queue each, computing
//! per-UE classifiers (attach handling) and policy-tag answers (path
//! requests).
//!
//! The one invariant: every piece of mutable front-end state lives in
//! the domain its key routes to. The [`RequestRouter`] sends every
//! request to the domain owning its key — UE-scoped requests by
//! [`shard_of_ue`], station-scoped ones by [`shard_of_station`] — so a
//! domain's UE map and path map need no lock at all, and the finite
//! identifier spaces (policy tags, permanent addresses) are split into
//! per-domain [`ShardRange`]s over shared [`RangePool`]s, with exhausted
//! domains stealing ranges other domains spilled. What stays shared is
//! read-mostly (policy, subscriber base) or telemetry.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::RwLock;

use softcell_policy::clause::ClauseId;
use softcell_policy::{AppClassifier, ServicePolicy, SubscriberAttributes, UeClassifier};
use softcell_telemetry::{trace, Counter, Gauge, Histogram, Registry, ReqTrace, Stopwatch};
use softcell_types::{
    shard_of_station, shard_of_ue, BaseStationId, Error, PolicyTag, RangePool, Result, ShardRange,
    SimTime, UeId, UeImsi,
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

/// Size of the permanent-address offset space the domains split into
/// per-domain ranges.
const PERMANENT_SPACE: u32 = 1 << 20;

/// Size of the policy-tag space the domains split.
const TAG_SPACE: u32 = 1024;

/// Identifier block handed to a domain at a time; small enough that the
/// stealing path is exercised under modest churn.
const RANGE_BLOCK: u32 = 64;

/// A request from a local agent.
pub enum Request {
    /// Worker-shutdown sentinel (sent by [`ControllerServer::shutdown`];
    /// each worker consumes exactly one and exits).
    Shutdown,
    /// A UE attached: compute and return its packet classifiers.
    Classifier {
        /// The subscriber.
        imsi: UeImsi,
        /// Where to send the answer.
        reply: Sender<Result<UeClassifier>>,
        /// Trace context + enqueue stamp ([`ReqTrace::NONE`] when
        /// untraced).
        trace: ReqTrace,
    },
    /// A UE attached over the wire: allocate (or keep) its permanent
    /// address, record its location and return the full grant.
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
        /// Trace context + enqueue stamp.
        trace: ReqTrace,
    },
    /// A UE detached over the wire: drop its record (returning it) and
    /// release its permanent address to the owning domain's range.
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

impl Request {
    /// The span kind a worker opens while serving this request.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Shutdown => "shutdown",
            Request::Classifier { .. } => "handle_classifier",
            Request::Attach { .. } => "handle_attach",
            Request::Detach { .. } => "handle_detach",
            Request::PathTag { .. } => "handle_path_tag",
        }
    }

    /// The trace carried by this request.
    pub fn trace(&self) -> ReqTrace {
        match self {
            Request::Shutdown => ReqTrace::NONE,
            Request::Classifier { trace, .. }
            | Request::Attach { trace, .. }
            | Request::Detach { trace, .. }
            | Request::PathTag { trace, .. } => *trace,
        }
    }
}

/// Routes requests to the domain owning their key: UE-scoped requests
/// ([`Request::Classifier`], [`Request::Attach`], [`Request::Detach`])
/// by [`shard_of_ue`], station-scoped ones ([`Request::PathTag`]) by
/// [`shard_of_station`]. The only way into a [`ControllerServer`].
#[derive(Clone)]
pub struct RequestRouter {
    txs: Arc<[Sender<Request>]>,
}

impl RequestRouter {
    /// Number of domains this router spreads requests over.
    pub fn domains(&self) -> usize {
        self.txs.len()
    }

    /// The domain a request belongs to.
    pub fn shard_of(&self, req: &Request) -> usize {
        let n = self.txs.len();
        match req {
            Request::Shutdown => 0,
            Request::Classifier { imsi, .. }
            | Request::Attach { imsi, .. }
            | Request::Detach { imsi, .. } => shard_of_ue(*imsi, n),
            Request::PathTag { bs, .. } => shard_of_station(*bs, n),
        }
    }

    /// Sends a request to its owning domain, blocking while that
    /// domain's queue is full.
    pub fn route(&self, req: Request) -> Result<()> {
        let i = self.shard_of(&req);
        self.txs[i]
            .send(req)
            .map_err(|_| Error::InvalidState("controller worker pool gone".into()))
    }

    /// Non-blocking route: `Ok(true)` enqueued, `Ok(false)` the owning
    /// domain's queue is full and the request was shed (the caller must
    /// account for it — see the wire front-end's
    /// `server_queue_rejected` counter), `Err` the pool is gone.
    pub fn try_route(&self, req: Request) -> Result<bool> {
        let i = self.shard_of(&req);
        match self.txs[i].try_send(req) {
            Ok(()) => Ok(true),
            Err(TrySendError::Full(_)) => Ok(false),
            Err(TrySendError::Disconnected(_)) => {
                Err(Error::InvalidState("controller worker pool gone".into()))
            }
        }
    }
}

/// One domain's private state: its UE and path maps (no lock — routing
/// guarantees single ownership of every IMSI and every (bs, clause) key)
/// and its slices of the shared tag and permanent-address spaces.
struct Domain {
    /// UE records registered over the wire front-end ([`crate::wire`]).
    ues: std::collections::HashMap<UeImsi, UeRecord>,
    /// (bs, clause) → tag. Path installation stand-in: allocate a tag and
    /// record the path. (The full Algorithm 1 runs in
    /// [`crate::sharded`]; this server measures control-plane request
    /// throughput, where the paper's bottleneck is the request fan-in,
    /// not the argmin.)
    paths: std::collections::HashMap<(BaseStationId, ClauseId), PolicyTag>,
    tags: ShardRange,
    permanent: ShardRange,
}

/// Controller state every domain reads: configuration and telemetry.
pub(crate) struct Shared {
    policy: RwLock<ServicePolicy>,
    apps: AppClassifier,
    subscribers: RwLock<std::collections::HashMap<UeImsi, SubscriberAttributes>>,
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
    /// Per-connection xid-dedup window for the wire front-end's serve
    /// loops (see `softcell_ctlchan::ServeOptions`). Defaults to the
    /// protocol default; widened for deployments where a re-homing
    /// storm can replay more in-flight xids than the default covers.
    dedup_window: AtomicU64,
}

impl Shared {
    /// The xid-dedup window new serve loops start with.
    pub(crate) fn dedup_window(&self) -> usize {
        // softcell-lint: allow(atomics-order) -- pure config knob: readers snapshot it once per connection
        self.dedup_window.load(Ordering::Relaxed) as usize
    }

    fn install_fence(&self) {
        // softcell-lint: allow(atomics-order) -- pure config knob: a stale read only mistimes the simulated fence
        let us = self.install_latency_us.load(Ordering::Relaxed);
        if us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
    }
}

/// A running front-end: N single-worker domains.
pub struct ControllerServer {
    txs: Arc<[Sender<Request>]>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl ControllerServer {
    /// Starts `shards` single-worker domains over the given policy and
    /// subscriber base, one request queue ([`DEFAULT_QUEUE_DEPTH`]) each,
    /// with per-domain UE and path maps and per-domain ranges of the tag
    /// and permanent-address spaces. Requests are submitted through the
    /// [`RequestRouter`] ([`Self::router`]) so every key reaches its
    /// owning domain.
    pub fn start_sharded(
        policy: ServicePolicy,
        subscribers: impl IntoIterator<Item = SubscriberAttributes>,
        shards: usize,
    ) -> Result<ControllerServer> {
        if shards == 0 {
            return Err(Error::Config("server needs at least one shard".into()));
        }
        let telemetry = Registry::new();
        let shared = Arc::new(Shared {
            policy: RwLock::new(policy),
            apps: AppClassifier::default(),
            subscribers: RwLock::new(subscribers.into_iter().map(|a| (a.imsi, a)).collect()),
            served: telemetry.counter("softcell_controller_packet_in_total"),
            active_connections: telemetry.gauge("softcell_controller_active_connections"),
            disconnects: telemetry.counter("softcell_controller_disconnects_total"),
            connection_errors: telemetry.counter("softcell_controller_connection_errors_total"),
            queue_rejected: telemetry.counter("softcell_controller_server_queue_rejected_total"),
            batch_seq: AtomicU64::new(0),
            install_latency_us: AtomicU64::new(0),
            dedup_window: AtomicU64::new(softcell_ctlchan::DEDUP_WINDOW as u64),
            telemetry,
        });
        let tag_pool = RangePool::new(TAG_SPACE, RANGE_BLOCK);
        let perm_pool = RangePool::new(PERMANENT_SPACE, RANGE_BLOCK);
        let mut txs = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = bounded::<Request>(DEFAULT_QUEUE_DEPTH);
            let shared = Arc::clone(&shared);
            let domain = Domain {
                ues: std::collections::HashMap::new(),
                paths: std::collections::HashMap::new(),
                tags: ShardRange::new(Arc::clone(&tag_pool)),
                permanent: ShardRange::new(Arc::clone(&perm_pool)),
            };
            let wm = WorkerMetrics::new(&shared.telemetry, shard);
            txs.push(tx);
            workers.push(std::thread::spawn(move || {
                worker_loop(rx, shared, domain, wm)
            }));
        }
        Ok(ControllerServer {
            txs: Arc::from(txs),
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

    /// Sets the per-connection xid-dedup window used by serve loops
    /// started *after* this call (live connections keep the window they
    /// started with). `window` must cover the largest burst of retried
    /// xids a client can replay — size it to at least the in-flight
    /// request budget of a re-homing storm. Values are clamped to 1 at
    /// the serve loop; see `softcell_ctlchan::ServeOptions`.
    pub fn set_dedup_window(&self, window: usize) {
        self.shared
            .dedup_window
            // softcell-lint: allow(atomics-order) -- pure config knob: no reader orders other memory against it
            .store(window as u64, Ordering::Relaxed);
    }

    /// A router sending each request to its owning domain (cloneable
    /// across client threads).
    pub fn router(&self) -> RequestRouter {
        RequestRouter {
            txs: Arc::clone(&self.txs),
        }
    }

    /// Number of domains.
    pub fn domains(&self) -> usize {
        self.txs.len()
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

    /// Registers another subscriber while running.
    pub fn put_subscriber(&self, attrs: SubscriberAttributes) {
        self.shared.subscribers.write().insert(attrs.imsi, attrs);
    }

    /// Stops the workers and waits for them. Robust against outstanding
    /// cloned routers: every domain gets one shutdown sentinel.
    pub fn shutdown(self) {
        for tx in self.txs.iter() {
            let _ = tx.send(Request::Shutdown);
        }
        drop(self.txs);
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Per-worker telemetry handles, interned once at spawn so the request
/// loop touches only atomics; one family per domain.
struct WorkerMetrics {
    /// `softcell_controller_shard_served_total{shard=i}`.
    served: Arc<Counter>,
    /// `softcell_controller_packet_in_latency_ns` — service time from
    /// dequeue to reply, all workers into one histogram.
    latency: Arc<Histogram>,
    /// `softcell_controller_shard_queue_depth_hwm{shard=i}` — high-water
    /// mark of requests waiting behind the one being served.
    queue_hwm: Arc<Gauge>,
    /// `softcell_controller_path_cache_hits_total{shard=i}`.
    path_hits: Arc<Counter>,
    /// `softcell_controller_path_cache_misses_total{shard=i}`.
    path_misses: Arc<Counter>,
    /// `softcell_controller_range_steals_total{shard=i}` — identifier
    /// blocks this domain stole from other domains' spills (recorded at
    /// shutdown; see [`ShardRange::steals`]).
    steals: Arc<Counter>,
    /// The shard index, stamped onto trace spans.
    shard: usize,
}

impl WorkerMetrics {
    fn new(registry: &Registry, shard: usize) -> WorkerMetrics {
        let label = format!("shard={shard}");
        WorkerMetrics {
            shard,
            served: registry.counter_with("softcell_controller_shard_served_total", &label),
            latency: registry.histogram("softcell_controller_packet_in_latency_ns"),
            queue_hwm: registry.gauge_with("softcell_controller_shard_queue_depth_hwm", &label),
            path_hits: registry.counter_with("softcell_controller_path_cache_hits_total", &label),
            path_misses: registry
                .counter_with("softcell_controller_path_cache_misses_total", &label),
            steals: registry.counter_with("softcell_controller_range_steals_total", &label),
        }
    }
}

fn compile_classifier(shared: &Shared, imsi: UeImsi) -> Result<UeClassifier> {
    let subs = shared.subscribers.read();
    let attrs = subs
        .get(&imsi)
        .ok_or_else(|| Error::NotFound(format!("unknown subscriber {imsi}")))?;
    let policy = shared.policy.read();
    Ok(UeClassifier::compile(&policy, &shared.apps, attrs))
}

fn worker_loop(rx: Receiver<Request>, shared: Arc<Shared>, mut domain: Domain, wm: WorkerMetrics) {
    while let Ok(req) = rx.recv() {
        // requests still queued behind the one just taken
        wm.queue_hwm.record_max(rx.len() as u64);
        let sw = Stopwatch::start();
        // Traced requests: close the cross-thread queue_wait interval
        // stamped at enqueue, then serve under a per-kind span (the
        // handler's own spans — engine tiers, install fences — nest in
        // it via the thread-local context).
        let rt = req.trace();
        let tracer = Registry::global().tracer();
        if rt.ctx.is_active() {
            tracer.record_span(
                rt.ctx,
                "queue_wait",
                rt.enqueued_us,
                trace::now_us(),
                wm.shard as i64,
                0,
            );
        }
        let mut sp = tracer.span_in(rt.ctx, req.kind());
        sp.set_shard(wm.shard);
        match req {
            Request::Shutdown => {
                // the domain's ranges die with the worker; bank their
                // steal counts first
                wm.steals
                    .add(domain.tags.steals() + domain.permanent.steals());
                return;
            }
            Request::Classifier { imsi, reply, .. } => {
                let out = compile_classifier(&shared, imsi);
                // count before replying so a client that has its answer
                // never observes a stale served() total
                shared.served.inc();
                wm.served.inc();
                sw.record(&wm.latency);
                let _ = reply.send(out);
            }
            Request::Attach {
                imsi,
                bs,
                ue_id,
                now,
                reply,
                ..
            } => {
                let out = (|| {
                    let classifier = compile_classifier(&shared, imsi)?;
                    // permanent addresses never change (§3.1): a
                    // re-attach keeps the one first assigned
                    let permanent_ip = match domain.ues.get(&imsi) {
                        Some(r) => r.permanent_ip,
                        // draw from this domain's range — routing by
                        // imsi guarantees the matching detach releases
                        // to the same range
                        None => {
                            let off = domain.permanent.allocate().ok_or_else(|| {
                                Error::Exhausted("permanent-address space".into())
                            })?;
                            Ipv4Addr::from(PERMANENT_POOL_BASE + 1 + off)
                        }
                    };
                    let record = UeRecord {
                        imsi,
                        permanent_ip,
                        bs,
                        ue_id,
                        since: now,
                    };
                    domain.ues.insert(imsi, record);
                    // the classifier install at the access station fences
                    shared.install_fence();
                    Ok(AttachGrant { record, classifier })
                })();
                shared.served.inc();
                wm.served.inc();
                sw.record(&wm.latency);
                let _ = reply.send(out);
            }
            Request::Detach { imsi, reply, .. } => {
                let out = domain
                    .ues
                    .remove(&imsi)
                    .ok_or_else(|| Error::NotFound(format!("{imsi} not attached")));
                if let Ok(record) = &out {
                    let off = u32::from(record.permanent_ip) - PERMANENT_POOL_BASE - 1;
                    domain.permanent.release(off);
                }
                shared.served.inc();
                wm.served.inc();
                sw.record(&wm.latency);
                let _ = reply.send(out);
            }
            Request::PathTag {
                bs, clause, reply, ..
            } => {
                // this domain owns every (bs, clause) it is ever asked
                // about, so its map needs no lock and the tag comes from
                // its private range
                let out = match domain.paths.get(&(bs, clause)) {
                    Some(t) => {
                        wm.path_hits.inc();
                        Ok(*t)
                    }
                    None => domain
                        .tags
                        .allocate()
                        .map(|v| {
                            wm.path_misses.inc();
                            let t = PolicyTag(v as u16);
                            domain.paths.insert((bs, clause), t);
                            // the path's fabric rules fence
                            shared.install_fence();
                            t
                        })
                        .ok_or_else(|| Error::Exhausted("policy-tag space".into())),
                };
                shared.served.inc();
                wm.served.inc();
                sw.record(&wm.latency);
                let _ = reply.send(out);
            }
        }
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

    #[test]
    fn classifier_requests_round_trip() {
        let server = server(10, 2);
        let (tx, rx) = bounded(1);
        server
            .router()
            .route(Request::Classifier {
                imsi: UeImsi(3),
                reply: tx,
                trace: ReqTrace::NONE,
            })
            .unwrap();
        let classifier = rx.recv().unwrap().unwrap();
        assert!(!classifier.entries().is_empty());
        assert_eq!(server.served(), 1);
        server.shutdown();
    }

    #[test]
    fn dedup_window_defaults_and_reconfigures() {
        let server = server(1, 1);
        assert_eq!(
            server.shared_state().dedup_window(),
            softcell_ctlchan::DEDUP_WINDOW
        );
        server.set_dedup_window(4096);
        assert_eq!(server.shared_state().dedup_window(), 4096);
        server.shutdown();
    }

    #[test]
    fn unknown_subscriber_errors() {
        let server = server(1, 1);
        let (tx, rx) = bounded(1);
        server
            .router()
            .route(Request::Classifier {
                imsi: UeImsi(99),
                reply: tx,
                trace: ReqTrace::NONE,
            })
            .unwrap();
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
                        router
                            .route(Request::Classifier {
                                imsi: UeImsi((c * 25 + i) % 100),
                                reply: tx.clone(),
                                trace: ReqTrace::NONE,
                            })
                            .unwrap();
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
        // private ranges
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
        // ranges through release, spill and steal; no two concurrently
        // attached UEs may ever share a permanent address
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
    fn zero_shards_rejected() {
        assert!(ControllerServer::start_sharded(
            ServicePolicy::example_carrier_a(1),
            subscribers(1),
            0
        )
        .is_err());
    }

    #[test]
    fn full_domain_queue_sheds_then_recovers() {
        let server = server(1, 1);
        server.set_install_latency(std::time::Duration::from_millis(200));
        let router = server.router();
        let (tx, rx) = bounded(DEFAULT_QUEUE_DEPTH + 1);
        let ask = || Request::PathTag {
            bs: BaseStationId(5),
            clause: ClauseId(0),
            reply: tx.clone(),
            trace: ReqTrace::NONE,
        };
        // the miss parks the only worker in the install fence; once it
        // has been taken the queue is empty and nothing drains it
        router.route(ask()).unwrap();
        while !router.txs[0].is_empty() {
            std::thread::yield_now();
        }
        for i in 0..DEFAULT_QUEUE_DEPTH {
            assert!(router.try_route(ask()).unwrap(), "request {i} fits");
        }
        assert!(!router.try_route(ask()).unwrap(), "queue full: shed");

        // after the fence every accepted request is answered, all alike
        let tag = rx.recv().unwrap().unwrap();
        for _ in 0..DEFAULT_QUEUE_DEPTH {
            assert_eq!(rx.recv().unwrap().unwrap(), tag);
        }
        assert!(rx.try_recv().is_err(), "the shed request got no answer");
        let hwm = server
            .telemetry()
            .gauge_with("softcell_controller_shard_queue_depth_hwm", "shard=0")
            .get();
        assert!(hwm >= DEFAULT_QUEUE_DEPTH as u64 - 1, "hwm {hwm}");
        assert!(router.try_route(ask()).unwrap(), "drained queue accepts");
        assert_eq!(rx.recv().unwrap().unwrap(), tag);
        server.shutdown();
    }
}
