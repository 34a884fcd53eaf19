//! One seat of the controller: the log of the agents' inputs, the
//! engine it replays to, and the peer-facing half of replication. The
//! agent-facing half is [`crate::server::ControllerServer`]: every
//! request a server domain serves is one [`ReplicaNode::propose`] on its
//! seat.
//!
//! A membership view has one leader, its first live seat. The leader
//! applies each input to its engine (an input the engine refuses is not
//! appended), appends it, ships it to every live peer behind the entry
//! it follows, and releases the answer once `quorum` seats hold it; a
//! one-seat view ([`crate::server::ControllerServer::start_sharded`])
//! commits on append. A follower appends only behind an identical entry.
//! One that cannot is sent the leader's log (`SnapshotTransfer`); of two
//! logs, the one whose last entry has the higher `(epoch, index)` is
//! adopted and replayed, never merged. A view's leader proposes nothing
//! before its log exchange reached a quorum ([`ReplicaNode::push_snapshot`]),
//! and every `Replicate` frame carries the leader's epoch, so a fenced
//! stale leader never gets a reply released. DESIGN.md §13 argues each
//! rule.
//!
//! Lock order: `propose` → `core` → `peers`. `core` holds the log and
//! the engine and is the server's engine lock, so nothing waits under
//! it: no network round trip, no other lock, no registry lookup (the
//! metric handles are interned per seat) and no engine restore (an
//! adopted log is decoded and replayed before `core` is taken to swap
//! it in).

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use softcell_ctlchan::{CtlChannel, Frame, Message, PacketIn, Transport};
use softcell_policy::clause::ClauseId;
use softcell_policy::{ServicePolicy, SubscriberAttributes};
use softcell_telemetry::{Counter, Gauge, Histogram, Registry, Stopwatch, TraceContext};
use softcell_types::{BaseStationId, ControllerId, EpochFence, Error, Membership, Result, UeImsi};

use crate::core::{CentralController, PathTags};
use crate::input::Output;
use crate::log::{decode_log, encode_log, Log, LogRecord};
use crate::state::UeRecord;
use crate::store::State;

/// Static configuration of one seat: who it is, what commits, and what
/// every engine it builds — fresh, restored or replayed — serves.
#[derive(Clone)]
pub struct ReplicaConfig {
    /// This node's seat.
    pub id: ControllerId,
    /// Nodes (leader included) that must hold a record before it
    /// commits. `1` disables replication waits; a majority tolerates
    /// minority failure.
    pub quorum: usize,
    /// Per-peer deadline for one replicate/ack round trip; an
    /// unreachable peer costs one deadline, not a hang.
    pub peer_deadline: Duration,
    /// The operator policy the engine serves.
    pub policy: ServicePolicy,
    /// The subscribers the engine is provisioned with; it refuses an
    /// attach by any other IMSI.
    pub subscribers: HashMap<UeImsi, SubscriberAttributes>,
}

/// A committed proposal.
#[derive(Debug)]
pub struct Committed {
    /// The record's index in the log.
    pub index: u64,
    /// The engine's answer.
    pub out: Output,
    /// Whether the engine queued rule ops for it (dropped: no switch is
    /// connected).
    pub queued: bool,
}

/// The log and the engine it replays to, guarded by one mutex (`core`
/// in the lock order). Nothing waits under it.
struct NodeCore {
    /// Current membership view.
    membership: Membership,
    /// Every record this seat holds.
    log: Log,
    /// `log`, applied in order.
    state: State,
    /// Highest index known to have reached quorum.
    commit: u64,
    /// The newest epoch in which this seat's log exchange reached a
    /// quorum; it leads a view only once this reaches the view's epoch.
    synced: u64,
}

/// How one peer answered a shipped record.
enum ShipOutcome {
    /// Appended, or already held.
    Acked,
    /// Could not append: the peer needs the leader's log.
    Behind,
    /// Rejected: the peer's epoch is newer; the leader is fenced.
    Fenced(u64),
}

/// A peer's channel, whatever carries it.
pub type Peer = CtlChannel<Box<dyn Transport>>;

/// The seat's handles into the global registry (names in
/// [`SeatMetrics::new`]), interned once at start so neither a proposal
/// nor anything under `core` takes the registry's lock.
struct SeatMetrics {
    epoch: Arc<Gauge>,
    epoch_changes: Arc<Counter>,
    acks: Arc<Counter>,
    ship_ack: Arc<Histogram>,
    commits: Arc<Counter>,
    lag: Arc<Gauge>,
    stale: Arc<Counter>,
    snapshots: Arc<Counter>,
}

impl SeatMetrics {
    fn new(reg: &Registry) -> SeatMetrics {
        SeatMetrics {
            epoch: reg.gauge("softcell_replica_current_epoch"),
            epoch_changes: reg.counter("softcell_replica_epoch_changes_total"),
            acks: reg.counter("softcell_replica_acks_total"),
            ship_ack: reg.histogram("softcell_replica_ship_ack_ns"),
            commits: reg.counter("softcell_replica_commits_total"),
            lag: reg.gauge("softcell_replica_replication_lag"),
            stale: reg.counter("softcell_replica_stale_epoch_rejections_total"),
            snapshots: reg.counter("softcell_replica_snapshots_total"),
        }
    }
}

/// One controller seat.
pub struct ReplicaNode {
    cfg: ReplicaConfig,
    fence: EpochFence,
    metrics: SeatMetrics,
    /// Serializes proposals: apply, append and ship in index order.
    propose: Mutex<()>,
    core: Mutex<NodeCore>,
    /// Outbound client channels, seat-indexed (`None` = self or not
    /// connected).
    peers: Mutex<Vec<Option<Peer>>>,
}

impl ReplicaNode {
    /// Creates a seat with the given membership view and outbound peer
    /// channels (seat-indexed; this node's own slot must be `None`).
    pub fn new(
        cfg: ReplicaConfig,
        membership: Membership,
        peers: Vec<Option<Peer>>,
    ) -> Result<Arc<ReplicaNode>> {
        let seats = membership.seats();
        if cfg.id.seat() >= seats || !(1..=seats).contains(&cfg.quorum) || peers.len() != seats {
            return Err(Error::Config(format!(
                "{} with quorum {} and {} peer slots is no seat of a {seats}-seat ring",
                cfg.id,
                cfg.quorum,
                peers.len()
            )));
        }
        let epoch = membership.epoch();
        let metrics = SeatMetrics::new(Registry::global());
        metrics.epoch.set(epoch);
        let state = State::new(&cfg)?;
        Ok(Arc::new(ReplicaNode {
            fence: EpochFence::new(epoch),
            metrics,
            propose: Mutex::new(()),
            core: Mutex::new(NodeCore {
                membership,
                log: Log::new(&state),
                state,
                commit: 0,
                // every seat starts on the same (empty) log
                synced: epoch,
            }),
            peers: Mutex::new(peers),
            cfg,
        }))
    }

    /// This node's seat.
    pub fn id(&self) -> ControllerId {
        self.cfg.id
    }

    /// This seat's configuration: what a fresh engine of its log is
    /// built from ([`Log::decode`], [`Log::replay`]).
    pub fn config(&self) -> &ReplicaConfig {
        &self.cfg
    }

    /// The epoch this node's fence currently stands at.
    pub fn current_epoch(&self) -> u64 {
        self.fence.current()
    }

    /// A copy of the current membership view.
    pub fn membership(&self) -> Membership {
        self.core.lock().membership.clone()
    }

    /// The encoded log: equal on two seats exactly when they hold the
    /// same records (the recovery oracle).
    pub fn log_bytes(&self) -> Vec<u8> {
        self.core.lock().log.encode()
    }

    /// The engine's image ([`State::image`]).
    pub fn image(&self) -> Vec<u8> {
        self.core.lock().state.image()
    }

    /// Reads the engine under the seat's lock.
    pub fn read<R>(&self, f: impl FnOnce(&CentralController) -> R) -> R {
        f(self.core.lock().state.engine())
    }

    /// The engine's record of `imsi`, if attached.
    pub fn ue(&self, imsi: UeImsi) -> Option<UeRecord> {
        self.read(|c| c.state().ue(imsi).ok().copied())
    }

    /// The engine's tags for the path of `(bs, clause)`, if installed.
    pub fn path(&self, bs: BaseStationId, clause: ClauseId) -> Option<PathTags> {
        self.read(|c| c.path_tags(bs, clause))
    }

    /// Number of installed paths.
    pub fn path_count(&self) -> usize {
        self.core.lock().state.path_count()
    }

    /// Number of records this seat holds, every one applied.
    pub fn applied(&self) -> u64 {
        self.core.lock().log.last_index()
    }

    /// The highest index this seat knows reached quorum.
    pub fn commit_index(&self) -> u64 {
        self.core.lock().commit
    }

    /// Locally adopts a newer membership view (the fail-over initiator
    /// calls this before broadcasting). Older or equal views are
    /// ignored.
    pub fn adopt_membership(&self, view: Membership) {
        let epoch = view.epoch();
        if self.adopt(&mut self.core.lock(), view) {
            self.epoch_changed(epoch);
        }
    }

    /// The one place a view is adopted: a view newer than `core`'s
    /// replaces it and raises the fence; older or equal views are
    /// ignored. Says whether it was adopted; the caller reports it with
    /// [`Self::epoch_changed`] once `core` is released.
    fn adopt(&self, core: &mut NodeCore, view: Membership) -> bool {
        let epoch = view.epoch();
        if epoch <= core.membership.epoch() {
            return false;
        }
        core.membership = view;
        self.fence.observe(epoch);
        true
    }

    /// Counts and traces the adoption of the view of `epoch`.
    fn epoch_changed(&self, epoch: u64) {
        self.metrics.epoch_changes.inc();
        self.metrics.epoch.set(epoch);
        Registry::global().tracer().instant("epoch_change", epoch);
    }

    /// Seats of the peers live under `view`, this node excluded.
    fn live_peers(&self, view: &Membership) -> Vec<usize> {
        (0..view.seats())
            .filter(|&s| s != self.cfg.id.seat() && view.is_live(ControllerId(s as u32)))
            .collect()
    }

    /// Pushes the current membership view to every live peer; returns
    /// how many acknowledged it. A peer replying with a *strictly
    /// newer* epoch did not adopt ours — it kept its own view — so that
    /// is a fencing signal: this node adopts the newer view and the
    /// broadcast fails, forcing the caller to abort (or retry under)
    /// the fresher view instead of fail-ing over on a stale one. A peer
    /// that does not answer is skipped.
    pub fn broadcast_epoch_change(&self) -> Result<usize> {
        let (epoch, msg, seats) = {
            let core = self.core.lock();
            let view = &core.membership;
            let msg = Message::EpochChange {
                epoch: view.epoch(),
                live: view.live_flags().to_vec(),
            };
            (view.epoch(), msg, self.live_peers(view))
        };
        let mut adopted = 0;
        let mut newer = None;
        {
            let mut peers = self.peers.lock();
            for seat in seats {
                let Some(chan) = peers.get_mut(seat).and_then(|s| s.as_mut()) else {
                    continue;
                };
                if let Ok(Message::EpochChange { epoch: got, live }) =
                    Self::ask(chan, &msg, self.cfg.peer_deadline)
                {
                    if got > epoch {
                        newer = Some((got, live));
                        break;
                    }
                    if got == epoch {
                        adopted += 1;
                    }
                }
            }
        }
        if let Some((got, live)) = newer {
            self.fence.observe(got);
            if let Ok(view) = Membership::from_parts(got, live) {
                self.adopt_membership(view);
            }
            return Err(Error::InvalidState(format!(
                "{} fenced during epoch broadcast: a peer already holds epoch {got} > {epoch}",
                self.cfg.id
            )));
        }
        Ok(adopted)
    }

    /// Exchanges logs with every live peer, converging the cluster
    /// after an epoch change: a peer holding a lower-ranked log adopts
    /// this node's, and one holding a higher-ranked log hands it back
    /// to be adopted here, after which a second round carries it to the
    /// rest. Succeeds, returning how many peers answered, once a quorum
    /// of seats (this one counted) took part in one round: this node's
    /// log then ranks at least as high as theirs, and it may lead the
    /// view. Fails with [`Error::Timeout`] otherwise.
    pub fn push_snapshot(&self) -> Result<usize> {
        let epoch = self.core.lock().membership.epoch();
        let mut answered = 0;
        for _round in 0..2 {
            let seats = self.live_peers(&self.core.lock().membership);
            let (took, changed) = self.exchange_snapshot(&seats);
            answered = answered.max(took.len());
            if !changed {
                break;
            }
        }
        if answered + 1 < self.cfg.quorum {
            return Err(Error::Timeout(format!(
                "{} exchanged logs with {}/{} seats in epoch {epoch}",
                self.cfg.id,
                answered + 1,
                self.cfg.quorum
            )));
        }
        let mut core = self.core.lock();
        core.synced = core.synced.max(epoch);
        Ok(answered)
    }

    /// The one log exchange: sends this node's log to each of `seats`
    /// and adopts any higher-ranked log a peer hands back. Returns the
    /// seats that answered and whether this node adopted.
    fn exchange_snapshot(&self, seats: &[usize]) -> (Vec<usize>, bool) {
        let msg = {
            let core = self.core.lock();
            Message::SnapshotTransfer {
                epoch: core.membership.epoch(),
                payload: Cow::Owned(core.log.encode()),
            }
        };
        let mut took = Vec::new();
        let mut returned = Vec::new();
        {
            let mut peers = self.peers.lock();
            for &seat in seats {
                let Some(chan) = peers.get_mut(seat).and_then(|s| s.as_mut()) else {
                    continue;
                };
                match Self::ask(chan, &msg, self.cfg.peer_deadline) {
                    Ok(Message::ReplicateAck { accepted: true, .. }) => took.push(seat),
                    Ok(Message::SnapshotTransfer { payload, .. }) => returned.push((seat, payload)),
                    // refused (stale epoch), unreachable, too long for a
                    // frame, or unexpected
                    _ => {}
                }
            }
        }
        let mut changed = false;
        for (seat, payload) in returned {
            if let Ok(adopted) = Log::rank_of(&payload).and_then(|r| self.adopt_log(&payload, r)) {
                took.push(seat);
                changed |= adopted;
            }
        }
        (took, changed)
    }

    /// Adopts the encoded log `payload`, ranked `theirs`, when it
    /// outranks this seat's own: the log is replaced and replayed into a
    /// fresh engine. Returns whether it was. The rank is compared under
    /// `core`; the log is decoded and replayed with no lock held, and
    /// `core` is taken again only to compare once more and swap. A log
    /// that fails to decode or replay leaves this seat as it was, and is
    /// no ack.
    fn adopt_log(&self, payload: &[u8], theirs: (u64, u64)) -> Result<bool> {
        if theirs <= self.core.lock().log.rank() {
            return Ok(false);
        }
        let (log, state) = Log::replay(payload, &self.cfg)?;
        let mut core = self.core.lock();
        if theirs <= core.log.rank() {
            return Ok(false);
        }
        core.commit = core.commit.min(log.last_index());
        let old = (
            std::mem::replace(&mut core.log, log),
            std::mem::replace(&mut core.state, state),
        );
        drop(core);
        drop(old);
        Ok(true)
    }

    /// The one peer call: `msg` to one peer under `deadline`, its reply
    /// decoded, and an error reply turned into the error it carries.
    fn ask(chan: &mut Peer, msg: &Message<'_>, deadline: Duration) -> Result<Message<'static>> {
        chan.set_deadline(Some(deadline))?;
        let res = chan.request(msg);
        let _ = chan.set_deadline(None);
        let raw = res?;
        let reply = Frame::new_checked(raw.as_slice())?.message()?.into_static();
        match reply.as_error() {
            Some(e) => Err(e),
            None => Ok(reply),
        }
    }

    // ------------------------------------------------------------------
    // Proposal path (leader side)
    // ------------------------------------------------------------------

    /// Proposes one agent input — on the view's leader only — and blocks
    /// until it commits or fails. An input the engine refuses is not
    /// appended.
    pub fn propose(&self, op: PacketIn) -> Result<Committed> {
        // Per-peer replicate_ack spans and the commit-side release span
        // nest under this one, itself under the request's span.
        let _sp = Registry::global().tracer().span("replica_propose");
        let _serial = self.propose.lock();
        let mut guard = self.core.lock();
        if guard.membership.leader() == Some(self.cfg.id) && guard.synced < guard.membership.epoch()
        {
            // the view's first proposal here: level the log with a
            // quorum's before appending to it
            drop(guard);
            self.push_snapshot()?;
            guard = self.core.lock();
        }
        let core = &mut *guard;
        self.check_can_propose(core)?;
        let (out, queued) = core.state.apply(&op)?;
        let record = LogRecord {
            epoch: core.membership.epoch(),
            index: core.log.last_index() + 1,
            op,
        };
        let prev = core.log.last();
        core.log.push(record, &core.state);
        let (seats, commit) = (self.live_peers(&core.membership), core.commit);
        drop(guard);
        self.ship_and_commit(record, prev, &seats, commit)?;
        Ok(Committed {
            index: record.index,
            out,
            queued,
        })
    }

    /// Fencing, leadership and log-exchange gate for proposals.
    fn check_can_propose(&self, core: &NodeCore) -> Result<()> {
        let epoch = core.membership.epoch();
        let fenced_at = self.fence.current();
        if fenced_at > epoch {
            return Err(Error::InvalidState(format!(
                "{} fenced: proposing under epoch {epoch} but fence at {fenced_at}",
                self.cfg.id
            )));
        }
        let leader = core.membership.leader();
        if leader != Some(self.cfg.id) {
            return Err(Error::InvalidState(format!(
                "{} does not lead epoch {epoch} (leader: {})",
                self.cfg.id,
                leader.map_or_else(|| "none".into(), |l| l.to_string()),
            )));
        }
        if core.synced < epoch {
            return Err(Error::Timeout(format!(
                "{} has not exchanged logs with a quorum in epoch {epoch}",
                self.cfg.id
            )));
        }
        Ok(())
    }

    /// Ships `record` — behind `prev`, the entry it follows — to the
    /// live peers `seats`, under the epoch it was appended in, with
    /// `commit` the leader's commit index then; hands the log to peers
    /// that cannot append it, and commits once quorum holds the record.
    /// With no live peer there is nothing to ship: a one-seat view
    /// commits on append.
    fn ship_and_commit(
        &self,
        record: LogRecord,
        prev: Option<LogRecord>,
        seats: &[usize],
        commit: u64,
    ) -> Result<()> {
        let tracer = Registry::global().tracer();
        let mut acks = 1usize; // the leader holds the record
        let mut behind: Vec<usize> = Vec::new();
        if !seats.is_empty() {
            let payload = match prev {
                Some(prev) => encode_log(&[prev, record]),
                None => encode_log(&[record]),
            };
            let mut peers = self.peers.lock();
            for &seat in seats {
                let Some(chan) = peers.get_mut(seat).and_then(|s| s.as_mut()) else {
                    continue;
                };
                // span ends (and the channel's trace context is
                // restored) before the outcome is acted on, so the
                // fenced early-return below cannot leak a stale context
                // onto this long-lived peer channel
                let clock = Stopwatch::start();
                let shipped = {
                    let mut sp = tracer.span("replicate_ack");
                    sp.set_shard(seat);
                    chan.set_trace(sp.ctx());
                    let r = self.ship_one(chan, &record, &payload, commit);
                    chan.set_trace(TraceContext::NONE);
                    r
                };
                match shipped {
                    Ok(ShipOutcome::Acked) => {
                        clock.record(&self.metrics.ship_ack);
                        self.metrics.acks.inc();
                        acks += 1;
                    }
                    Ok(ShipOutcome::Behind) => behind.push(seat),
                    Ok(ShipOutcome::Fenced(newer)) => {
                        self.fence.observe(newer);
                        return Err(Error::InvalidState(format!(
                            "{} fenced by epoch {newer} while shipping index {}",
                            self.cfg.id, record.index
                        )));
                    }
                    // unreachable or unwilling peer: simply no ack
                    Err(_) => {}
                }
            }
        }
        if !behind.is_empty() {
            // a peer that took the log holds the record with it
            let (took, _) = self.exchange_snapshot(&behind);
            self.metrics.acks.add(took.len() as u64);
            acks += took.len();
        }
        let _sp = tracer.span("release");
        let mut core = self.core.lock();
        if core.log.get(record.index) != Some(record) {
            return Err(Error::InvalidState(format!(
                "index {} was replaced by a higher-ranked log",
                record.index
            )));
        }
        if acks < self.cfg.quorum {
            // The record stays in the log and commits with the next one
            // that reaches quorum.
            return Err(Error::Timeout(format!(
                "index {} reached {acks}/{} quorum",
                record.index, self.cfg.quorum
            )));
        }
        core.commit = core.commit.max(record.index);
        drop(core);
        self.metrics.commits.inc();
        // lag = live peers that do not hold this record
        self.metrics
            .lag
            .set((seats.len() + 1).saturating_sub(acks) as u64);
        Ok(())
    }

    /// One replicate/ack round trip with a single peer. The record's
    /// epoch is the fencing key: the leader appended it under that view.
    fn ship_one(
        &self,
        chan: &mut Peer,
        record: &LogRecord,
        payload: &[u8],
        commit: u64,
    ) -> Result<ShipOutcome> {
        let epoch = record.epoch;
        let msg = Message::Replicate {
            origin: self.cfg.id.0,
            epoch,
            index: record.index,
            commit,
            payload: Cow::Borrowed(payload),
        };
        match Self::ask(chan, &msg, self.cfg.peer_deadline)? {
            Message::ReplicateAck {
                epoch: theirs,
                accepted,
                ..
            } => Ok(if accepted {
                ShipOutcome::Acked
            } else if theirs > epoch {
                ShipOutcome::Fenced(theirs)
            } else {
                ShipOutcome::Behind
            }),
            other => Err(softcell_ctlchan::channel::unexpected(
                "replicate-ack",
                &other,
            )),
        }
    }

    // ------------------------------------------------------------------
    // Peer-facing handler (follower side)
    // ------------------------------------------------------------------

    /// Handles one controller-to-controller message; `None` for
    /// messages the ctlchan serve loop answers itself.
    pub fn handle_peer(&self, msg: &Message<'_>) -> Option<Message<'static>> {
        match msg {
            Message::Replicate {
                origin,
                epoch,
                index,
                commit,
                payload,
            } => Some(self.on_replicate(*origin, *epoch, *index, *commit, payload)),
            Message::SnapshotTransfer { epoch, payload } => Some(self.on_snapshot(*epoch, payload)),
            Message::EpochChange { epoch, live } => Some(self.on_epoch_change(*epoch, live)),
            _ => None,
        }
    }

    /// Spawns a thread serving controller-to-controller traffic from
    /// one peer over `transport`.
    pub fn serve_peer(
        self: &Arc<Self>,
        transport: impl Transport + 'static,
    ) -> JoinHandle<Result<()>> {
        let node = Arc::clone(self);
        std::thread::spawn(move || {
            softcell_ctlchan::serve(transport, || 0, move |msg, _ctx| node.handle_peer(msg))
        })
    }

    fn on_replicate(
        &self,
        origin: u32,
        epoch: u64,
        index: u64,
        commit: u64,
        payload: &[u8],
    ) -> Message<'static> {
        let entries = match decode_log(payload) {
            Ok(entries) => entries,
            Err(e) => return Message::from_error(&e),
        };
        // the record, behind the entry it follows (none for the first)
        let (prev, record) = match entries.as_slice() {
            [first] if first.index == 1 => (None, *first),
            [prev, record] => (Some(*prev), *record),
            _ => {
                return Message::from_error(&Error::Malformed(
                    "replicate payload is not one record behind the entry it follows".into(),
                ))
            }
        };
        // The frame epoch is the leader's current (fencing) epoch; a
        // record appended under an earlier view may trail it, never lead.
        if record.index != index || record.epoch > epoch {
            return Message::from_error(&Error::Malformed(
                "replicate header disagrees with its payload".into(),
            ));
        }
        let ack = |epoch, accepted| Message::ReplicateAck { epoch, accepted };
        let mut guard = self.core.lock();
        let core = &mut *guard;
        let my_epoch = core.membership.epoch().max(self.fence.current());
        if epoch < my_epoch {
            // A stale leader's record: fence it. This is the property
            // the partition test pins down — rejection here, combined
            // with commit-gated reply release, is what guarantees a
            // deposed leader can never act.
            drop(guard);
            self.metrics.stale.inc();
            Registry::global()
                .tracer()
                .instant("stale_epoch_reject", epoch);
            return ack(my_epoch, false);
        }
        if epoch > core.membership.epoch() {
            // The leader is ahead of our view; its epoch-change
            // broadcast is in flight. Raise the fence and take the
            // record: our stale view cannot judge who leads the newer.
            self.fence.observe(epoch);
        } else if core.membership.leader() != Some(ControllerId(origin)) {
            return ack(my_epoch, false);
        }
        // a record folded into the base cannot be compared: the leader
        // then sends its log instead
        let accepted = match core.log.get(index) {
            Some(held) => held == record,
            None if index == core.log.last_index() + 1 && core.log.last() == prev => {
                // applies as it did on the leader's identical prefix
                let _ = core.state.apply(&record.op);
                core.log.push(record, &core.state);
                self.metrics.acks.inc();
                self.metrics.lag.set(index.saturating_sub(commit));
                true
            }
            None => false,
        };
        if accepted {
            core.commit = core.commit.max(commit.min(index));
        }
        ack(my_epoch.max(epoch), accepted)
    }

    fn on_snapshot(&self, epoch: u64, payload: &[u8]) -> Message<'static> {
        let theirs = match Log::rank_of(payload) {
            Ok(rank) => rank,
            Err(e) => return Message::from_error(&e),
        };
        let epoch = {
            let core = self.core.lock();
            let my_epoch = core.membership.epoch().max(self.fence.current());
            if epoch < my_epoch {
                drop(core);
                self.metrics.stale.inc();
                return Message::ReplicateAck {
                    epoch: my_epoch,
                    accepted: false,
                };
            }
            // The sender leads, or is bringing up, a view at least as
            // new as ours: from here on, records of older views are
            // refused.
            self.fence.observe(epoch);
            my_epoch.max(epoch)
        };
        match self.adopt_log(payload, theirs) {
            Ok(true) => {
                self.metrics.snapshots.inc();
                Registry::global().tracer().instant("log_adopted", epoch);
            }
            Err(e) => return Message::from_error(&e),
            Ok(false) => {
                let core = self.core.lock();
                if core.log.rank() > theirs {
                    // Ours outranks the sender's: hand it back to be
                    // adopted there.
                    return Message::SnapshotTransfer {
                        epoch,
                        payload: Cow::Owned(core.log.encode()),
                    };
                }
            }
        }
        Message::ReplicateAck {
            epoch,
            accepted: true,
        }
    }

    fn on_epoch_change(&self, epoch: u64, live: &[bool]) -> Message<'static> {
        let mut core = self.core.lock();
        let mut adopted = false;
        if epoch > core.membership.epoch() {
            match Membership::from_parts(epoch, live.to_vec()) {
                Ok(view) => adopted = self.adopt(&mut core, view),
                Err(e) => return Message::from_error(&e),
            }
        }
        let reply = Message::EpochChange {
            epoch: core.membership.epoch(),
            live: core.membership.live_flags().to_vec(),
        };
        drop(core);
        if adopted {
            self.epoch_changed(epoch);
        }
        reply
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;
    use crate::testkit::{config, input};
    use crate::wire::reply;

    /// The fold gate: a log folded past `KEEP` records, encoded and
    /// decoded on a fresh seat, leaves that seat answering as the
    /// leader does.
    #[test]
    fn a_seat_restored_from_a_folded_log_answers_as_the_leader() {
        let seat = || {
            let view = Membership::bootstrap(1).unwrap();
            ReplicaNode::new(config(0), view, vec![None]).unwrap()
        };
        let (leader, fresh) = (seat(), seat());
        let mut rng = StdRng::seed_from_u64(41);
        while leader.applied() < 2 * 1024 + 7 {
            let _ = leader.propose(input(&mut rng));
        }
        let payload = Cow::Owned(leader.log_bytes());
        let ack = fresh.handle_peer(&Message::SnapshotTransfer { epoch: 1, payload });
        let accepted = Message::ReplicateAck {
            epoch: 1,
            accepted: true,
        };
        assert_eq!(ack, Some(accepted));
        let answer = |seat: &ReplicaNode, op| {
            let frame = seat
                .propose(op)
                .and_then(|c| reply(0, op, c, TraceContext::NONE));
            frame.unwrap_or_else(|e| Message::from_error(&e))
        };
        for _ in 0..100 {
            assert_eq!(leader.log_bytes(), fresh.log_bytes());
            assert_eq!(leader.image(), fresh.image());
            let op = input(&mut rng);
            assert_eq!(answer(&leader, op), answer(&fresh, op));
        }
        assert_eq!(leader.log_bytes(), fresh.log_bytes());
        assert_eq!(leader.image(), fresh.image());
    }

    /// A boxed transport carries a peer's frames like the one it boxes.
    #[test]
    fn a_seat_of_two_ships_over_boxed_links() {
        let view = Membership::bootstrap(2).unwrap();
        let (a, b) = softcell_ctlchan::loopback_pair();
        let link: Box<dyn Transport> = Box::new(a);
        let mut two = config(0);
        two.quorum = 2;
        let peers = vec![None, Some(CtlChannel::new(link))];
        let leader = ReplicaNode::new(two, view.clone(), peers).unwrap();
        let follower = ReplicaNode::new(config(1), view, vec![None, None]).unwrap();
        let serving = follower.serve_peer(b);
        let c = leader.propose(crate::testkit::attach(3)).unwrap();
        assert_eq!((c.index, leader.commit_index()), (1, 1));
        assert!(follower.ue(UeImsi(3)).is_some());
        drop(leader);
        serving.join().unwrap().unwrap();
    }
}
