//! One controller replica: the leader's log, quorum commit, follower
//! replay, epoch fencing, and the agent-facing front-end.
//!
//! ## One leader, one log
//!
//! A membership view has one leader, its first live seat
//! ([`Membership::leader`]). The leader takes each agent input, applies
//! it to its state — which is where an address or tag is allocated —
//! appends it as the next index of its log, and ships it to every live
//! peer in a `Replicate` frame whose payload is the record behind the
//! entry it follows. A follower appends only behind an identical entry,
//! so its log is always a prefix of a leader's, and applies what it
//! appends. The record **commits** — and only then is the agent's reply
//! released — once `quorum` seats (the leader counts) hold it. A record
//! that misses quorum stays in the leader's log and commits with the
//! next record that reaches quorum.
//!
//! ## Catch-up and fail-over move log entries
//!
//! A follower that cannot append (it missed records, or holds records a
//! deposed leader never committed) is sent the leader's log in a
//! `SnapshotTransfer`: its folded prefix as the state it replays to, and
//! the records after it ([`Log`]). Of two logs, the one whose last entry
//! has the higher `(epoch, index)` ranks higher: the other side adopts it
//! and rebuilds its state by replaying it. Nothing is merged. Fail-over
//! runs the same two-way exchange from the initiator to every survivor,
//! twice, so each survivor ends on the highest-ranked log among them.
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
use softcell_ctlchan::{
    CtlChannel, Frame, Message, PacketIn, Transport, WireBatchGroup, WireFlowMod, WirePathTags,
    WireUeRecord,
};
use softcell_policy::{AppClassifier, ServicePolicy, SubscriberAttributes, UeClassifier};
use softcell_telemetry::{Registry, Stopwatch, TraceContext};
use softcell_types::{ControllerId, EpochFence, Error, Membership, PortNo, Result, UeImsi};

use crate::log::{decode_log, encode_log, Log, LogRecord};
use crate::store::{Applied, State, UeEntry};

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
    /// The operator policy agents' classifiers are compiled from.
    pub policy: ServicePolicy,
    /// Known subscribers; unknown IMSIs fall back to
    /// [`SubscriberAttributes::default_home`].
    pub subscribers: HashMap<UeImsi, SubscriberAttributes>,
}

/// The log and the state it replays to, guarded by one mutex (`core` in
/// the lock order). Never held across a network wait.
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
    /// Adopts `log` when it outranks this seat's own: the log is
    /// replaced and replayed into fresh state. Returns whether it was.
    fn adopt_log(&mut self, log: Log) -> bool {
        if log.rank() <= self.log.rank() {
            return false;
        }
        self.state = log.replay();
        self.commit = self.commit.min(log.last_index());
        self.log = log;
        true
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
    /// Application signatures for classifier compilation.
    apps: AppClassifier,
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
            apps: AppClassifier::default(),
            fence: EpochFence::new(epoch),
            propose: Mutex::new(()),
            core: Mutex::new(NodeCore {
                membership,
                log: Log::default(),
                state: State::default(),
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

    /// A copy of the state this seat's log replays to.
    pub fn state(&self) -> State {
        self.core.lock().state.clone()
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
                    Ok(Message::SnapshotTransfer { payload, .. }) => {
                        if let Ok(log) = Log::decode(&payload) {
                            took.push(seat);
                            returned.push(log);
                        }
                    }
                    // refused (stale epoch), unreachable, too long for a
                    // frame, or unexpected
                    _ => {}
                }
            }
        }
        let mut changed = false;
        if !returned.is_empty() {
            let mut core = self.core.lock();
            for log in returned {
                changed |= core.adopt_log(log);
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
    /// until it commits or fails. Returns the record's index and what
    /// applying it did.
    pub fn propose(&self, op: PacketIn) -> Result<(u64, Applied)> {
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
        let (record, prev, applied) = {
            let mut core = self.core.lock();
            self.check_can_propose(&core)?;
            let applied = core.state.apply(&op)?;
            let record = LogRecord {
                epoch: core.membership.epoch(),
                index: core.log.last_index() + 1,
                op,
            };
            let prev = core.log.last();
            core.log.push(record);
            (record, prev, applied)
        };
        self.ship_and_commit(record, prev)?;
        Ok((record.index, applied))
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
        let log = match Log::decode(payload) {
            Ok(log) => log,
            Err(e) => return Message::from_error(&e),
        };
        let theirs = log.rank();
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
        if core.adopt_log(log) {
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
    /// — the agent's classifier or flow-mod — is released only after it
    /// commits.
    pub fn handle_agent(&self, msg: &Message<'_>) -> Option<Message<'static>> {
        let Message::PacketIn(pi) = msg else {
            return None;
        };
        let reply = self
            .propose(*pi)
            .map(|(index, applied)| self.reply(index, applied));
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

    /// The agent's reply to the committed record at `index`.
    fn reply(&self, index: u64, applied: Applied) -> Message<'static> {
        let record = |imsi: UeImsi, e: UeEntry| WireUeRecord {
            imsi,
            permanent_ip: e.permanent_ip,
            bs: e.bs,
            ue_id: e.ue_id,
            since: e.since,
        };
        match applied {
            Applied::Attached(imsi, e) => {
                let attrs = self
                    .cfg
                    .subscribers
                    .get(&imsi)
                    .cloned()
                    .unwrap_or_else(|| SubscriberAttributes::default_home(imsi));
                let classifier = UeClassifier::compile(&self.cfg.policy, &self.apps, &attrs);
                Message::ClassifierReply {
                    record: record(imsi, e),
                    classifier: Some(softcell_controller::wire::classifier_to_wire(&classifier)),
                }
            }
            Applied::Detached(imsi, e) => Message::ClassifierReply {
                record: record(imsi, e),
                classifier: None,
            },
            // The wire front-end's frame, over this state machine's
            // one-tag end-to-end stand-in (the engine replaces it in
            // ROADMAP item 5; the server already answers from it).
            // (leader seat, record index) is this cluster's (shard,
            // seq): indices only grow, across leaders too.
            Applied::Path(bs, clause, tag) => Message::FlowModBatch {
                shard: self.cfg.id.0 as u16,
                seq: index as u32,
                groups: vec![WireBatchGroup {
                    bs,
                    barrier: true,
                    mods: vec![WireFlowMod {
                        bs,
                        clause,
                        tags: WirePathTags {
                            uplink_entry: tag,
                            uplink_exit: tag,
                            downlink_final: tag,
                            access_out_port: PortNo(1),
                            qos: None,
                        },
                    }],
                }],
            },
        }
    }
}
