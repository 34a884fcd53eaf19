//! One controller replica: the leader's log, quorum commit, follower
//! replay, epoch fencing, and the agent-facing front-end.
//!
//! ## One leader, one log
//!
//! A membership view has one leader, its first live seat
//! ([`Membership::leader`]). The leader takes each agent input, applies
//! it to its engine — whose answer the reply carries; an input the
//! engine refuses is not appended — appends it as the next index of its
//! log, and ships it to every live peer in a `Replicate` frame whose
//! payload is the record behind the entry it follows. A follower
//! appends only behind an identical entry, so its log is always a prefix
//! of a leader's, and applies what it appends. The record **commits** —
//! and only then is the agent's reply released — once `quorum` seats
//! (the leader counts) hold it. A record that misses quorum stays in the
//! leader's log and commits with the next record that reaches quorum.
//!
//! ## Catch-up and fail-over move log entries
//!
//! A follower that cannot append (it missed records, or holds records a
//! deposed leader never committed) is sent the leader's log in a
//! `SnapshotTransfer`: the records after its folded prefix, and that
//! prefix as the image of the engine it replays to ([`Log`]). Of two
//! logs, the one whose last entry has the higher `(epoch, index)` ranks
//! higher: the other side adopts it and rebuilds its engine by replaying
//! it. Nothing is merged. Fail-over runs the same two-way exchange from
//! the initiator to every survivor, twice, so each survivor ends on the
//! highest-ranked log among them.
//!
//! A view's leader proposes nothing until an exchange of its own has
//! reached a quorum of seats, itself counted ([`ReplicaNode::push_snapshot`]).
//! A committed record is held by a commit quorum, which shares a seat
//! with the exchange's quorum; after the exchange the leader's log ranks
//! at least as high as that seat's, and since every earlier leader
//! started the same way, it holds the record. Without the rule, a leader
//! that reached no one could append under its newer epoch and then
//! outrank, and erase, a log holding a committed record. A fail-over
//! that reaches no quorum fails, and the leader's first proposal retries
//! the exchange.
//!
//! ## Fencing
//!
//! Every `Replicate` frame carries the leader's epoch. A follower whose
//! view (or fence) is newer rejects it and reports its epoch; the leader
//! raises its own [`EpochFence`] and fails the proposal. Since a reply is
//! released only at commit, **a fenced stale leader can never get a
//! flow-mod acknowledged** — the partition test in `cluster.rs` proves
//! it.
//!
//! ## Lock order
//!
//! `propose` → `core` → `peers`, and `core` is never held across a
//! network wait: a proposal appends under `core`, drops it, ships under
//! `peers`, and re-acquires `core` only to commit.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use softcell_controller::core::PathTags;
use softcell_controller::input::Output;
use softcell_controller::state::UeRecord;
use softcell_controller::wire::classifier_to_wire;
use softcell_ctlchan::{
    CtlChannel, Frame, Message, PacketIn, Transport, WireBatchGroup, WireFlowMod,
};
use softcell_policy::clause::ClauseId;
use softcell_policy::{ServicePolicy, SubscriberAttributes};
use softcell_telemetry::{Registry, Stopwatch, TraceContext};
use softcell_types::{BaseStationId, ControllerId, EpochFence, Error, Membership, Result, UeImsi};

use crate::log::{decode_log, encode_log, Log, LogRecord};
use crate::store::State;

/// Static configuration of one replica.
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

/// The log and the engine it replays to, guarded by one mutex (`core`
/// in the lock order). Never held across a network wait.
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

impl NodeCore {
    /// Adopts the encoded log `payload` when it outranks this seat's
    /// own: the log is replaced and replayed into a fresh engine. Returns
    /// whether it was; the image is restored only then. A log that fails
    /// to decode or replay leaves this seat as it was, and is no ack.
    fn adopt_log(&mut self, payload: &[u8], cfg: &ReplicaConfig) -> Result<bool> {
        if Log::rank_of(payload)? <= self.log.rank() {
            return Ok(false);
        }
        let log = Log::decode(payload, cfg)?;
        self.state = log.replay(cfg)?;
        self.commit = self.commit.min(log.last_index());
        self.log = log;
        Ok(true)
    }
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

/// One controller replica.
///
/// Generic over the ctlchan [`Transport`] so tests wire nodes with
/// loopback (or kill-switchable) links and deployments use TCP.
pub struct ReplicaNode<T: Transport> {
    cfg: ReplicaConfig,
    fence: EpochFence,
    /// Serializes proposals: apply, append and ship in index order.
    propose: Mutex<()>,
    core: Mutex<NodeCore>,
    /// Outbound client channels, seat-indexed (`None` = self or not
    /// connected).
    peers: Mutex<Vec<Option<CtlChannel<T>>>>,
}

impl<T: Transport> ReplicaNode<T> {
    /// Creates a replica with the given membership view and outbound
    /// peer channels (seat-indexed; this node's own slot must be
    /// `None`).
    pub fn new(
        cfg: ReplicaConfig,
        membership: Membership,
        peers: Vec<Option<CtlChannel<T>>>,
    ) -> Result<Arc<ReplicaNode<T>>> {
        if cfg.id.seat() >= membership.seats() {
            return Err(Error::Config(format!(
                "{} is not a seat of a {}-seat ring",
                cfg.id,
                membership.seats()
            )));
        }
        if cfg.quorum == 0 || cfg.quorum > membership.seats() {
            return Err(Error::Config(format!(
                "quorum {} outside 1..={}",
                cfg.quorum,
                membership.seats()
            )));
        }
        if peers.len() != membership.seats() {
            return Err(Error::Config(format!(
                "{} peer slots for {} seats",
                peers.len(),
                membership.seats()
            )));
        }
        let epoch = membership.epoch();
        Registry::global()
            .gauge("softcell_replica_current_epoch")
            .set(epoch);
        Ok(Arc::new(ReplicaNode {
            fence: EpochFence::new(epoch),
            propose: Mutex::new(()),
            core: Mutex::new(NodeCore {
                membership,
                log: Log::new(&cfg)?,
                state: State::new(&cfg)?,
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

    /// The engine's record of `imsi`, if attached.
    pub fn ue(&self, imsi: UeImsi) -> Option<UeRecord> {
        let core = self.core.lock();
        core.state.engine().state().ue(imsi).ok().copied()
    }

    /// The engine's tags for the path of `(bs, clause)`, if installed.
    pub fn path(&self, bs: BaseStationId, clause: ClauseId) -> Option<PathTags> {
        self.core.lock().state.engine().path_tags(bs, clause)
    }

    /// Number of attached UEs.
    pub fn ue_count(&self) -> usize {
        self.core.lock().state.engine().state().attached_count()
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
        self.adopt(&mut self.core.lock(), view);
    }

    /// The one place a view is adopted: a view newer than `core`'s
    /// replaces it and raises the fence; older or equal views are
    /// ignored.
    fn adopt(&self, core: &mut NodeCore, view: Membership) {
        let epoch = view.epoch();
        if epoch <= core.membership.epoch() {
            return;
        }
        core.membership = view;
        self.fence.observe(epoch);
        let reg = Registry::global();
        reg.counter("softcell_replica_epoch_changes_total").inc();
        reg.gauge("softcell_replica_current_epoch").set(epoch);
        reg.tracer().instant("epoch_change", epoch);
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
        if !returned.is_empty() {
            let mut core = self.core.lock();
            for (seat, payload) in returned {
                if let Ok(adopted) = core.adopt_log(&payload, &self.cfg) {
                    took.push(seat);
                    changed |= adopted;
                }
            }
        }
        (took, changed)
    }

    /// The one peer call: `msg` to one peer under `deadline`, its reply
    /// decoded, and an error reply turned into the error it carries.
    fn ask(
        chan: &mut CtlChannel<T>,
        msg: &Message<'_>,
        deadline: Duration,
    ) -> Result<Message<'static>> {
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
    /// until it commits or fails. Returns the record's index and the
    /// engine's answer. An input the engine refuses is not appended.
    pub fn propose(&self, op: PacketIn) -> Result<(u64, Output)> {
        // Trace root for the whole quorum round: per-peer replicate_ack
        // spans and the commit-side release span nest under it.
        let _sp = Registry::global().tracer().root("replica_propose");
        let _serial = self.propose.lock();
        let unsynced = {
            let core = self.core.lock();
            core.membership.leader() == Some(self.cfg.id) && core.synced < core.membership.epoch()
        };
        if unsynced {
            // the view's first proposal here: level the log with a
            // quorum's before appending to it
            self.push_snapshot()?;
        }
        let (record, prev, out) = {
            let mut core = self.core.lock();
            self.check_can_propose(&core)?;
            let out = core.state.apply(&op)?;
            let record = LogRecord {
                epoch: core.membership.epoch(),
                index: core.log.last_index() + 1,
                op,
            };
            let prev = core.log.last();
            core.log.push(record);
            (record, prev, out)
        };
        self.ship_and_commit(record, prev)?;
        Ok((record.index, out))
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

    /// Ships `record` — behind `prev`, the entry it follows — to every
    /// live peer, hands the log to peers that cannot append it, and
    /// commits once quorum holds the record.
    fn ship_and_commit(&self, record: LogRecord, prev: Option<LogRecord>) -> Result<()> {
        let reg = Registry::global();
        let payload = match prev {
            Some(prev) => encode_log(&[prev, record]),
            None => encode_log(&[record]),
        };
        let (seats, commit_before, epoch) = {
            let core = self.core.lock();
            (
                self.live_peers(&core.membership),
                core.commit,
                core.membership.epoch(),
            )
        };
        let mut acks = 1usize; // the leader holds the record
        let mut behind: Vec<usize> = Vec::new();
        {
            let mut peers = self.peers.lock();
            for &seat in &seats {
                let Some(chan) = peers.get_mut(seat).and_then(|s| s.as_mut()) else {
                    continue;
                };
                // span ends (and the channel's trace context is
                // restored) before the outcome is acted on, so the
                // fenced early-return below cannot leak a stale context
                // onto this long-lived peer channel
                let clock = Stopwatch::start();
                let shipped = {
                    let mut sp = reg.tracer().span("replicate_ack");
                    sp.set_shard(seat);
                    chan.set_trace(sp.ctx());
                    let r = self.ship_one(chan, &record, &payload, commit_before, epoch);
                    chan.set_trace(TraceContext::NONE);
                    r
                };
                match shipped {
                    Ok(ShipOutcome::Acked) => {
                        clock.record(&reg.histogram("softcell_replica_ship_ack_ns"));
                        reg.counter("softcell_replica_acks_total").inc();
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
            reg.counter("softcell_replica_acks_total")
                .add(took.len() as u64);
            acks += took.len();
        }
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
        let _sp = reg.tracer().span("release");
        core.commit = core.commit.max(record.index);
        reg.counter("softcell_replica_commits_total").inc();
        // lag = live peers that do not hold this record
        reg.gauge("softcell_replica_replication_lag")
            .set((seats.len() + 1).saturating_sub(acks) as u64);
        Ok(())
    }

    /// One replicate/ack round trip with a single peer. `epoch` is the
    /// leader's current epoch, the fencing key; a record appended under
    /// an earlier view keeps its own epoch.
    fn ship_one(
        &self,
        chan: &mut CtlChannel<T>,
        record: &LogRecord,
        payload: &[u8],
        commit: u64,
        epoch: u64,
    ) -> Result<ShipOutcome> {
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
    pub fn serve_peer(self: &Arc<Self>, transport: T) -> JoinHandle<Result<()>>
    where
        T: 'static,
    {
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
        let reg = Registry::global();
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
        let mut core = self.core.lock();
        let my_epoch = core.membership.epoch().max(self.fence.current());
        let ack = |epoch, accepted| Message::ReplicateAck { epoch, accepted };
        if epoch < my_epoch {
            // A stale leader's record: fence it. This is the property
            // the partition test pins down — rejection here, combined
            // with commit-gated reply release, is what guarantees a
            // deposed leader can never act.
            reg.counter("softcell_replica_stale_epoch_rejections_total")
                .inc();
            reg.tracer().instant("stale_epoch_reject", epoch);
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
                core.log.push(record);
                reg.counter("softcell_replica_acks_total").inc();
                reg.gauge("softcell_replica_replication_lag")
                    .set(index.saturating_sub(commit));
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
        let reg = Registry::global();
        let theirs = match Log::rank_of(payload) {
            Ok(rank) => rank,
            Err(e) => return Message::from_error(&e),
        };
        let mut core = self.core.lock();
        let my_epoch = core.membership.epoch().max(self.fence.current());
        if epoch < my_epoch {
            reg.counter("softcell_replica_stale_epoch_rejections_total")
                .inc();
            return Message::ReplicateAck {
                epoch: my_epoch,
                accepted: false,
            };
        }
        // The sender leads, or is bringing up, a view at least as new as
        // ours: from here on, records of older views are refused.
        self.fence.observe(epoch);
        let epoch = my_epoch.max(epoch);
        let adopted = match core.adopt_log(payload, &self.cfg) {
            Ok(adopted) => adopted,
            Err(e) => return Message::from_error(&e),
        };
        if adopted {
            reg.counter("softcell_replica_snapshots_total").inc();
            reg.tracer().instant("log_adopted", epoch);
        } else if core.log.rank() > theirs {
            // Ours outranks the sender's: hand it back to be adopted
            // there.
            return Message::SnapshotTransfer {
                epoch,
                payload: Cow::Owned(core.log.encode()),
            };
        }
        Message::ReplicateAck {
            epoch,
            accepted: true,
        }
    }

    fn on_epoch_change(&self, epoch: u64, live: &[bool]) -> Message<'static> {
        let mut core = self.core.lock();
        if epoch > core.membership.epoch() {
            match Membership::from_parts(epoch, live.to_vec()) {
                Ok(view) => self.adopt(&mut core, view),
                Err(e) => return Message::from_error(&e),
            }
        }
        Message::EpochChange {
            epoch: core.membership.epoch(),
            live: core.membership.live_flags().to_vec(),
        }
    }

    // ------------------------------------------------------------------
    // Agent-facing handler (the southbound front-end)
    // ------------------------------------------------------------------

    /// Handles one agent message: the input is proposed, and the reply
    /// — the engine's grant, detached record or path tags — is released
    /// only after it commits.
    pub fn handle_agent(&self, msg: &Message<'_>) -> Option<Message<'static>> {
        let Message::PacketIn(pi) = msg else {
            return None;
        };
        let reply = self
            .propose(*pi)
            .and_then(|(index, out)| self.reply(index, *pi, out));
        Some(reply.unwrap_or_else(|e| Message::from_error(&e)))
    }

    /// Spawns a thread serving one agent connection over `transport`.
    pub fn serve_agent(self: &Arc<Self>, transport: T) -> JoinHandle<Result<()>>
    where
        T: 'static,
    {
        let node = Arc::clone(self);
        std::thread::spawn(move || {
            softcell_ctlchan::serve(transport, || 0, move |msg, _ctx| node.handle_agent(msg))
        })
    }

    /// The agent's reply to the committed record at `index`, in the wire
    /// front-end's frames. (leader seat, record index) is this
    /// cluster's (shard, seq): indices only grow, across leaders too.
    fn reply(&self, index: u64, op: PacketIn, out: Output) -> Result<Message<'static>> {
        Ok(match (op, out) {
            (_, Output::Attached(grant)) => Message::ClassifierReply {
                record: grant.record.into(),
                classifier: Some(classifier_to_wire(&grant.classifier)),
            },
            (_, Output::Detached(record)) => Message::ClassifierReply {
                record: record.into(),
                classifier: None,
            },
            (PacketIn::PathRequest { bs, clause }, Output::Path(tags)) => Message::FlowModBatch {
                shard: self.cfg.id.0 as u16,
                seq: index as u32,
                groups: vec![WireBatchGroup {
                    bs,
                    barrier: true,
                    mods: vec![WireFlowMod {
                        bs,
                        clause,
                        tags: tags.into(),
                    }],
                }],
            },
            (op, out) => {
                let what = format!("{op:?} answered with {out:?}");
                return Err(Error::InvalidState(what));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use std::mem::discriminant;
    use std::time::Duration;

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use softcell_controller::core::CentralController;
    use softcell_controller::input::Input;
    use softcell_controller::install::Direction;
    use softcell_ctlchan::Loopback;
    use softcell_policy::ServicePolicy;

    use super::*;
    use crate::cluster::{Cluster, Link};
    use crate::store::{engine, write_image};
    use crate::testkit::{config, input, subscribers};

    impl<T: Transport> ReplicaNode<T> {
        /// This seat's engine image.
        fn image(&self) -> Vec<u8> {
            let mut out = Vec::new();
            self.core.lock().state.write(&mut out);
            out
        }
    }

    /// Whether two engine answers agree: the record and the classifier
    /// entries of a grant, the detached record, all five path tags.
    fn same(a: &Output, b: &Output) -> bool {
        match (a, b) {
            (Output::Attached(a), Output::Attached(b)) => {
                a.record == b.record && a.classifier.entries() == b.classifier.entries()
            }
            (Output::Detached(a), Output::Detached(b)) => a == b,
            (Output::Path(a), Output::Path(b)) => a == b,
            _ => false,
        }
    }

    /// What a run released: each committed answer by its index, and each
    /// refused input with the index it was refused after.
    #[derive(Default)]
    struct Released {
        answers: HashMap<u64, Output>,
        refused: Vec<(u64, PacketIn, Error)>,
    }

    impl Released {
        /// Proposes `n` seeded inputs on the view's leader.
        fn run(&mut self, c: &Cluster, rng: &mut StdRng, n: usize) {
            let leader = c.membership().unwrap().leader().unwrap().seat();
            let node = c.node(leader);
            for _ in 0..n {
                let (op, before) = (input(rng), node.applied());
                match node.propose(op) {
                    Ok((index, out)) => assert!(self.answers.insert(index, out).is_none()),
                    Err(e) => {
                        assert_eq!(node.applied(), before, "{op:?} refused with {e}, appended");
                        self.refused.push((before, op, e));
                    }
                }
            }
        }
    }

    /// Applies one input to `fresh`, recording a path it installs.
    fn apply(
        fresh: &mut CentralController,
        keys: &mut Vec<(BaseStationId, ClauseId)>,
        op: PacketIn,
    ) -> Result<Output> {
        let new = match op {
            PacketIn::PathRequest { bs, clause } => fresh.path_tags(bs, clause).is_none(),
            _ => false,
        };
        let out = fresh.apply(&Input::Agent(op))?;
        fresh.drain_ops();
        if let (true, PacketIn::PathRequest { bs, clause }) = (new, op) {
            keys.push((bs, clause));
        }
        Ok(out)
    }

    /// The replay gate: a seeded three-seat run through a cut, a heal
    /// with catch-up, a kill and a fail-over. Each survivor's committed
    /// records, fed through `apply` on a fresh engine, give every
    /// released answer and every refusal again, and the same engine.
    #[test]
    fn every_survivor_replays_to_the_answers_it_released() {
        let policy = ServicePolicy::example_carrier_a(1);
        let c = Cluster::start(3, 2, &policy, &subscribers(), Duration::from_millis(400)).unwrap();
        let mut rng = StdRng::seed_from_u64(40);
        let mut run = Released::default();
        run.run(&c, &mut rng, 80);
        c.cut(2);
        run.run(&c, &mut rng, 40);
        c.heal(2);
        run.run(&c, &mut rng, 40);
        c.kill(0);
        c.fail_over(&[ControllerId(0)]).unwrap();
        run.run(&c, &mut rng, 60);
        let paths = run.answers.values();
        assert!(paths.filter(|o| matches!(o, Output::Path(_))).count() > 20);
        assert!(run.refused.len() > 20, "{} refused", run.refused.len());

        let cfg = config(0);
        for seat in [1, 2] {
            let node: &ReplicaNode<Link> = c.node(seat);
            let log = Log::decode(&node.log_bytes(), &cfg).unwrap();
            let (mut fresh, mut keys) = (engine(&cfg).unwrap(), Vec::new());
            for index in 0..=log.last_index() {
                if let Some(r) = log.get(index) {
                    let out = apply(&mut fresh, &mut keys, r.op).unwrap();
                    let released = run.answers.get(&index);
                    assert!(released.is_none_or(|a| same(a, &out)), "index {index}");
                }
                for (_, op, err) in run.refused.iter().filter(|r| r.0 == index) {
                    let got = apply(&mut fresh, &mut keys, *op).unwrap_err();
                    assert_eq!(discriminant(&got), discriminant(err), "{op:?}: {got}");
                }
            }
            assert!(run.answers.keys().all(|i| *i <= log.last_index()));

            let mut image = Vec::new();
            write_image(&fresh, &keys, &mut image);
            assert_eq!(node.image(), image, "seat {seat}");
            for &(bs, clause) in &keys {
                assert_eq!(node.path(bs, clause), fresh.path_tags(bs, clause));
            }
            let core = node.core.lock();
            for dir in [Direction::Uplink, Direction::Downlink] {
                let mine = core.state.engine().installer().shadows(dir);
                assert!(fresh.installer().shadows(dir).diff(mine).is_empty());
                assert!(mine.diff(fresh.installer().shadows(dir)).is_empty());
            }
        }
    }

    /// The fold gate: a log folded past `KEEP` records, encoded and
    /// decoded on a fresh seat, leaves that seat answering as the
    /// leader does.
    #[test]
    fn a_seat_restored_from_a_folded_log_answers_as_the_leader() {
        let seat = || {
            let view = Membership::bootstrap(1).unwrap();
            ReplicaNode::<Loopback>::new(config(0), view, vec![None]).unwrap()
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
        for _ in 0..100 {
            assert_eq!(leader.log_bytes(), fresh.log_bytes());
            assert_eq!(leader.image(), fresh.image());
            let op = Message::PacketIn(input(&mut rng));
            assert_eq!(leader.handle_agent(&op), fresh.handle_agent(&op));
        }
        assert_eq!(leader.log_bytes(), fresh.log_bytes());
        assert_eq!(leader.image(), fresh.image());
    }
}
