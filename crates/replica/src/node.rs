//! One controller replica: quorum-committed proposals, follower-side
//! record application, epoch fencing, and the agent-facing front-end.
//!
//! ## Commit protocol
//!
//! A node *proposes* an operation as the next record of its own origin
//! sequence (index = its commit index + 1) and ships it to every live
//! peer as a `Replicate` frame. Followers apply on receipt and
//! acknowledge; the proposal **commits** — and only then is the
//! agent-facing reply (classifier grant or flow-mod) released — once
//! `quorum` nodes (the proposer counts) hold it. A record that misses
//! quorum stays *pending* and is re-shipped, under the same index,
//! before the node accepts any new proposal: two different records can
//! therefore never exist at the same `(origin, index)`, which is what
//! keeps follower stores convergent.
//!
//! ## Fencing
//!
//! Every record carries the epoch it was proposed under. A follower
//! whose membership view (or fence) is newer rejects the record and
//! reports its epoch; the proposer observes the higher epoch in its own
//! [`EpochFence`] and fails the proposal. Since flow-mod release is
//! gated on quorum commit, **a fenced stale leader can never get a
//! flow-mod acknowledged** — the partition test in this module proves
//! it.
//!
//! ## Lock order
//!
//! `propose` → `core` → `peers`, and `core` is never held across a
//! network wait: proposals capture what they need from the core, drop
//! it, ship under `peers`, and re-acquire `core` only to commit.

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
use softcell_policy::clause::ClauseId;
use softcell_policy::{AppClassifier, ServicePolicy, SubscriberAttributes, UeClassifier};
use softcell_telemetry::{Registry, Stopwatch, TraceContext};
use softcell_types::{
    BaseStationId, ControllerId, EpochFence, Error, IdPool, Membership, PolicyTag, PortNo, Result,
    SimTime, UeId, UeImsi,
};

use crate::log::{LogRecord, ReplicatedOp};
use crate::store::{ReplicaStore, UeEntry};

/// Base of the permanent-IP slab (100.64.0.0/10, carrier-grade NAT
/// space). Seat `s` allocates from `100.64.0.0 + (s << 16)`, so
/// concurrent region leaders never hand out colliding addresses.
const IP_SLAB_BASE: u32 = 0x6440_0000;

/// Per-seat tag slab width: seat `s` allocates tags `s*256 + 1 ..
/// s*256 + 255`, again collision-free across concurrent leaders.
const TAG_SLAB: u16 = 256;

/// Static configuration of one replica.
#[derive(Clone)]
pub struct ReplicaConfig {
    /// This node's seat.
    pub id: ControllerId,
    /// Nodes (proposer included) that must hold a record before it
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

/// Replicated + local mutable state, guarded by one mutex (`core` in
/// the lock order). Never held across a network wait.
struct NodeCore {
    /// Materialized replicated state (all origins).
    store: ReplicaStore,
    /// Current membership view.
    membership: Membership,
    /// A proposal that missed quorum: must commit (under its original
    /// index) before any new proposal is accepted.
    pending: Option<LogRecord>,
    /// Permanent-IP slab offsets, less one (offset 0 is never used).
    ips: IdPool,
    /// Tag slab offsets, less one (offset 0 is never used).
    tags: IdPool,
    /// Own commit watermark (highest own index that reached quorum);
    /// the next proposal takes `commit + 1`.
    commit: u64,
}

/// How one peer answered a shipped record.
enum ShipOutcome {
    /// Applied and acknowledged (or already held — both count).
    Acked,
    /// Rejected: peer is missing earlier records and needs a snapshot.
    Gap,
    /// Rejected: peer's epoch is newer; the proposer is fenced.
    Fenced(u64),
    /// Rejected for another reason (origin not live in peer's view).
    Rejected,
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
    /// Serializes proposals (and the allocation decisions they embed).
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
                store: ReplicaStore::new(),
                membership,
                pending: None,
                ips: IdPool::new(0xFFFF),
                tags: IdPool::new(u32::from(TAG_SLAB) - 1),
                commit: 0,
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

    /// The deterministic byte image of the replicated store (the
    /// recovery oracle).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.core.lock().store.snapshot_bytes()
    }

    /// The live store entry for `imsi`, if attached.
    pub fn store_ue(&self, imsi: UeImsi) -> Option<UeEntry> {
        self.core.lock().store.ue(imsi).copied()
    }

    /// Highest index applied from `origin`.
    pub fn applied(&self, origin: ControllerId) -> u64 {
        self.core.lock().store.applied(origin)
    }

    /// This node's own commit watermark.
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

    /// Pushes this node's store image to every live peer, converging
    /// the cluster after an epoch change. Receivers *merge* the image
    /// (point-wise LWW join), so no committed record is lost and no
    /// watermark regresses; a receiver that held records this node
    /// lacks hands its merged image back, which is merged here and
    /// pushed again — after the second round every survivor holds the
    /// union. Returns how many peers adopted in the final round.
    pub fn push_snapshot(&self) -> Result<usize> {
        let mut adopted = 0;
        for _round in 0..2 {
            let seats = self.live_peers(&self.core.lock().membership);
            let (took, changed) = self.exchange_snapshot(&seats);
            adopted = took.len();
            if !changed {
                break;
            }
        }
        Ok(adopted)
    }

    /// The one snapshot exchange: sends this node's store image to each
    /// of `seats` and merges back every image a peer returns (it held
    /// records this node lacked). Returns the seats that took the image
    /// and whether a returned image changed this node's store.
    fn exchange_snapshot(&self, seats: &[usize]) -> (Vec<usize>, bool) {
        let msg = {
            let core = self.core.lock();
            Message::SnapshotTransfer {
                epoch: core.membership.epoch(),
                payload: Cow::Owned(core.store.snapshot_bytes()),
            }
        };
        let mut took = Vec::new();
        let mut returned: Vec<ReplicaStore> = Vec::new();
        {
            let mut peers = self.peers.lock();
            for &seat in seats {
                let Some(chan) = peers.get_mut(seat).and_then(|s| s.as_mut()) else {
                    continue;
                };
                match Self::ask(chan, &msg, self.cfg.peer_deadline) {
                    Ok(Message::ReplicateAck { accepted: true, .. }) => took.push(seat),
                    Ok(Message::SnapshotTransfer { payload, .. }) => {
                        if let Ok(store) = ReplicaStore::restore(&payload) {
                            took.push(seat);
                            returned.push(store);
                        }
                    }
                    // refused (stale epoch), unreachable or unexpected
                    _ => {}
                }
            }
        }
        let mut changed = false;
        if !returned.is_empty() {
            let mut core = self.core.lock();
            for store in &returned {
                changed |= core.store.merge(store);
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

    /// Proposes one operation and blocks until it commits (quorum) or
    /// fails. Returns the committed record's own-origin index.
    pub fn propose(&self, op: ReplicatedOp) -> Result<u64> {
        // Trace root for the whole quorum round: per-peer replicate_ack
        // spans and the commit-side release span nest under it.
        let _sp = Registry::global().tracer().root("replica_propose");
        let _serial = self.propose.lock();
        self.propose_inner(op)
    }

    /// Proposal body; caller must hold the `propose` lock.
    fn propose_inner(&self, op: ReplicatedOp) -> Result<u64> {
        self.flush_pending()?;
        let record = {
            let mut core = self.core.lock();
            self.check_can_propose(&core)?;
            let record = LogRecord {
                origin: self.cfg.id,
                epoch: core.membership.epoch(),
                index: core.commit + 1,
                op,
            };
            core.pending = Some(record);
            record
        };
        self.ship_and_commit(record)
    }

    /// Proposes `op`, which carries a slab id this proposal drew fresh,
    /// and gives the id back if the proposal fails — unless the pending
    /// record holds it (a quorum miss or fence keeps the record pending;
    /// it must commit under this allocation). A failure *before* the
    /// record was created — a stuck earlier proposal, a raised fence —
    /// must not burn a slot per retry until the slab runs dry.
    fn propose_fresh(&self, op: ReplicatedOp) -> Result<u64> {
        let committed = self.propose_inner(op);
        if committed.is_err() {
            let mut core = self.core.lock();
            if !matches!(&core.pending, Some(r) if r.op == op) {
                match op {
                    ReplicatedOp::Attach { permanent_ip, .. } => {
                        core.ips.release((u32::from(permanent_ip) & 0xFFFF) - 1);
                    }
                    ReplicatedOp::PathInstall { tag, .. } => {
                        core.tags.release(u32::from(tag.0 % TAG_SLAB) - 1);
                    }
                    ReplicatedOp::Detach { .. } => {}
                }
            }
        }
        committed
    }

    /// Re-ships a proposal stuck from an earlier failed quorum round —
    /// byte-identical to the first attempt (same index, content, *and*
    /// epoch stamp, so followers that applied the old copy and
    /// followers first seeing the re-ship materialize the same entry).
    /// Only the transport-level fence epoch in the `Replicate` frame is
    /// current, which is what lets followers with a newer view accept
    /// it.
    fn flush_pending(&self) -> Result<()> {
        let stuck = {
            let core = self.core.lock();
            if core.pending.is_some() {
                self.check_can_propose(&core)?;
            }
            core.pending
        };
        match stuck {
            Some(r) => self.ship_and_commit(r).map(|_| ()),
            None => Ok(()),
        }
    }

    /// Fencing and liveness gate for proposals.
    fn check_can_propose(&self, core: &NodeCore) -> Result<()> {
        let epoch = core.membership.epoch();
        let fenced_at = self.fence.current();
        if fenced_at > epoch {
            return Err(Error::InvalidState(format!(
                "{} fenced: proposing under epoch {epoch} but fence at {fenced_at}",
                self.cfg.id
            )));
        }
        if !core.membership.is_live(self.cfg.id) {
            return Err(Error::InvalidState(format!(
                "{} is not live in epoch {epoch}",
                self.cfg.id
            )));
        }
        Ok(())
    }

    /// Ships `record` to every live peer, gathers acknowledgements
    /// (catching gapped peers up with a snapshot, then re-shipping),
    /// and commits locally once quorum is reached.
    fn ship_and_commit(&self, record: LogRecord) -> Result<u64> {
        let reg = Registry::global();
        let payload = record.encode();
        let (seats, commit_before, fence_epoch) = {
            let core = self.core.lock();
            (
                self.live_peers(&core.membership),
                core.commit,
                core.membership.epoch(),
            )
        };
        let mut acks = 1usize; // the proposer holds the record
        let mut gapped: Vec<usize> = Vec::new();
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
                    let r = self.ship_one(chan, &record, &payload, commit_before, fence_epoch);
                    chan.set_trace(TraceContext::NONE);
                    r
                };
                match shipped {
                    Ok(ShipOutcome::Acked) => {
                        clock.record(&reg.histogram("softcell_replica_ship_ack_ns"));
                        reg.counter("softcell_replica_acks_total").inc();
                        acks += 1;
                    }
                    Ok(ShipOutcome::Gap) => gapped.push(seat),
                    Ok(ShipOutcome::Fenced(newer)) => {
                        self.fence.observe(newer);
                        return Err(Error::InvalidState(format!(
                            "{} fenced by epoch {newer} while shipping index {}",
                            self.cfg.id, record.index
                        )));
                    }
                    Ok(ShipOutcome::Rejected) | Err(_) => {
                        // unreachable or unwilling peer: simply no ack
                    }
                }
            }
        }
        if !gapped.is_empty() {
            // A gapped peer can still be *ahead* on other origins; the
            // exchange keeps whatever its merged image taught us.
            let (healed, _) = self.exchange_snapshot(&gapped);
            let epoch = self.core.lock().membership.epoch();
            let mut peers = self.peers.lock();
            for seat in healed {
                let Some(chan) = peers.get_mut(seat).and_then(|s| s.as_mut()) else {
                    continue;
                };
                if let Ok(ShipOutcome::Acked) =
                    self.ship_one(chan, &record, &payload, commit_before, epoch)
                {
                    reg.counter("softcell_replica_acks_total").inc();
                    acks += 1;
                }
            }
        }
        if acks >= self.cfg.quorum {
            let _sp = reg.tracer().span("release");
            let mut core = self.core.lock();
            core.store.apply(&record)?;
            core.commit = record.index;
            core.pending = None;
            reg.counter("softcell_replica_commits_total").inc();
            // lag = live peers that did not acknowledge this round
            reg.gauge("softcell_replica_replication_lag")
                .set((seats.len() + 1).saturating_sub(acks) as u64);
            Ok(record.index)
        } else {
            // The record stays pending; the next proposal (or explicit
            // retry) re-ships it under the same index.
            Err(Error::Timeout(format!(
                "index {} reached {acks}/{} quorum",
                record.index, self.cfg.quorum
            )))
        }
    }

    /// One replicate/ack round trip with a single peer. `fence_epoch`
    /// is the sender's *current* epoch and rides in the frame header as
    /// the fencing key; the payload record keeps the epoch it was
    /// originally proposed under, which may be older when a pending
    /// record is re-shipped after the proposer survived an epoch change
    /// — re-stamping the record itself would make replicas that deduped
    /// the first copy diverge from replicas that only saw the re-ship.
    fn ship_one(
        &self,
        chan: &mut CtlChannel<T>,
        record: &LogRecord,
        payload: &[u8],
        commit: u64,
        fence_epoch: u64,
    ) -> Result<ShipOutcome> {
        let msg = Message::Replicate {
            origin: record.origin.0,
            epoch: fence_epoch,
            index: record.index,
            commit,
            payload: Cow::Borrowed(payload),
        };
        match Self::ask(chan, &msg, self.cfg.peer_deadline)? {
            Message::ReplicateAck {
                epoch,
                accepted,
                have_index,
            } => Ok(if accepted {
                ShipOutcome::Acked
            } else if epoch > fence_epoch {
                ShipOutcome::Fenced(epoch)
            } else if have_index >= record.index {
                ShipOutcome::Acked
            } else if have_index + 1 < record.index {
                ShipOutcome::Gap
            } else {
                ShipOutcome::Rejected
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
        let record = match LogRecord::decode(payload) {
            Ok(r) => r,
            Err(e) => return Message::from_error(&e),
        };
        // The frame epoch is the sender's *current* (fencing) epoch;
        // the record keeps the epoch it was proposed under, which may
        // trail the frame's after a pending re-ship — but never lead it.
        if record.origin.0 != origin || record.epoch > epoch || record.index != index {
            return Message::from_error(&Error::Malformed(
                "replicate header disagrees with its payload".into(),
            ));
        }
        let mut core = self.core.lock();
        let my_epoch = core.membership.epoch().max(self.fence.current());
        let reject = |core: &NodeCore, my_epoch| Message::ReplicateAck {
            epoch: my_epoch,
            accepted: false,
            have_index: core.store.applied(record.origin),
        };
        if epoch < my_epoch {
            // A stale leader's record: fence it. This is the property
            // the partition test pins down — rejection here, combined
            // with commit-gated flow-mod release, is what guarantees a
            // deposed leader can never act.
            reg.counter("softcell_replica_stale_epoch_rejections_total")
                .inc();
            reg.tracer().instant("stale_epoch_reject", epoch);
            return reject(&core, my_epoch);
        }
        if epoch > core.membership.epoch() {
            // The proposer is ahead of our view; the epoch-change
            // broadcast is in flight. Raise the fence now, accept the
            // record (it is from the newer term, not an older one).
            // Liveness cannot be judged here: our stale view may well
            // declare the origin dead when the newer view revived it.
            self.fence.observe(epoch);
        } else if !core.membership.is_live(record.origin) {
            // A record at our own epoch from a seat this very view
            // declares dead — not a stale-epoch case, its own signal.
            reg.counter("softcell_replica_dead_origin_rejections_total")
                .inc();
            reg.tracer().instant("dead_origin_reject", epoch);
            return reject(&core, my_epoch);
        }
        match core.store.apply(&record) {
            Ok(applied) => {
                if applied {
                    reg.counter("softcell_replica_acks_total").inc();
                    reg.gauge("softcell_replica_replication_lag")
                        .set(index.saturating_sub(commit));
                }
                Message::ReplicateAck {
                    epoch: my_epoch.max(epoch),
                    accepted: true,
                    have_index: core.store.applied(record.origin),
                }
            }
            Err(_) => reject(&core, my_epoch.max(epoch)),
        }
    }

    fn on_snapshot(&self, epoch: u64, payload: &[u8]) -> Message<'static> {
        let reg = Registry::global();
        let incoming = match ReplicaStore::restore(payload) {
            Ok(s) => s,
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
                have_index: 0,
            };
        }
        // Merge, never replace: the point-wise LWW join keeps every
        // record either side applied — our own committed tail *and*
        // third-party records the sender happens to be behind on — so a
        // snapshot can never erase a committed record or regress an
        // applied watermark.
        let had_more = core.store.ahead_of(&incoming);
        core.store.merge(&incoming);
        reg.counter("softcell_replica_snapshots_total").inc();
        reg.tracer().instant("snapshot_merged", epoch);
        if had_more {
            // We hold records the sender lacks: hand the merged image
            // back so the sender (the fail-over initiator) converges on
            // the union and can re-push it to the other survivors.
            return Message::SnapshotTransfer {
                epoch: my_epoch.max(epoch),
                payload: Cow::Owned(core.store.snapshot_bytes()),
            };
        }
        Message::ReplicateAck {
            epoch: my_epoch.max(epoch),
            accepted: true,
            have_index: 0,
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

    /// Handles one agent message. Attach/detach/path-request all
    /// propose through the replicated log; the reply — and with it the
    /// agent's flow-mod or classifier — is only released after quorum
    /// commit.
    pub fn handle_agent(&self, msg: &Message<'_>) -> Option<Message<'static>> {
        let Message::PacketIn(pi) = msg else {
            return None;
        };
        let result = match *pi {
            PacketIn::Attach {
                imsi,
                bs,
                ue_id,
                now,
            } => self.on_attach(imsi, bs, ue_id, now),
            PacketIn::Detach { imsi } => self.on_detach(imsi),
            PacketIn::PathRequest { bs, clause } => self.on_path_request(bs, clause),
        };
        Some(result.unwrap_or_else(|e| Message::from_error(&e)))
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

    /// Refuses agent operations for stations this node does not lead —
    /// the agent's cue to re-home to the deterministic successor.
    fn check_leadership(&self, core: &NodeCore, bs: BaseStationId) -> Result<()> {
        let leader = core.membership.leader_of_station(bs);
        if leader != Some(self.cfg.id) {
            return Err(Error::InvalidState(format!(
                "{} does not lead {bs}'s region in epoch {} (leader: {})",
                self.cfg.id,
                core.membership.epoch(),
                leader.map_or_else(|| "none".into(), |l| l.to_string()),
            )));
        }
        Ok(())
    }

    fn on_attach(
        &self,
        imsi: UeImsi,
        bs: BaseStationId,
        ue_id: UeId,
        now: SimTime,
    ) -> Result<Message<'static>> {
        let _serial = self.propose.lock();
        let (permanent_ip, fresh) = {
            let mut core = self.core.lock();
            self.check_leadership(&core, bs)?;
            match core.store.ue(imsi) {
                // Re-attach (resync or handoff): the permanent address
                // follows the subscriber, exactly as over the
                // single-controller wire path.
                Some(e) => (e.permanent_ip, false),
                None => {
                    let off = core.ips.allocate().ok_or_else(|| {
                        Error::Exhausted(format!(
                            "permanent-IP slab of seat {} exhausted",
                            self.cfg.id
                        ))
                    })?;
                    let raw = IP_SLAB_BASE | ((self.cfg.id.0 & 0x3F) << 16) | (off + 1);
                    (std::net::Ipv4Addr::from(raw), true)
                }
            }
        };
        let op = ReplicatedOp::Attach {
            imsi,
            bs,
            ue_id,
            since: now,
            permanent_ip,
        };
        if fresh {
            self.propose_fresh(op)?;
        } else {
            self.propose_inner(op)?;
        }
        let attrs = self
            .cfg
            .subscribers
            .get(&imsi)
            .cloned()
            .unwrap_or_else(|| SubscriberAttributes::default_home(imsi));
        let classifier = UeClassifier::compile(&self.cfg.policy, &self.apps, &attrs);
        Ok(Message::ClassifierReply {
            record: WireUeRecord {
                imsi,
                permanent_ip,
                bs,
                ue_id,
                since: now,
            },
            classifier: Some(softcell_controller::wire::classifier_to_wire(&classifier)),
        })
    }

    fn on_detach(&self, imsi: UeImsi) -> Result<Message<'static>> {
        let _serial = self.propose.lock();
        let (entry, since) = {
            let core = self.core.lock();
            let (entry, since) = core
                .ue_slot_attached(imsi)
                .ok_or_else(|| Error::NotFound(format!("{imsi} is not attached")))?;
            self.check_leadership(&core, entry.bs)?;
            (entry, since)
        };
        self.propose_inner(ReplicatedOp::Detach { imsi, since })?;
        Ok(Message::ClassifierReply {
            record: WireUeRecord {
                imsi,
                permanent_ip: entry.permanent_ip,
                bs: entry.bs,
                ue_id: entry.ue_id,
                since,
            },
            classifier: None,
        })
    }

    fn on_path_request(&self, bs: BaseStationId, clause: ClauseId) -> Result<Message<'static>> {
        let _serial = self.propose.lock();
        let (tag, already_installed) = {
            let mut core = self.core.lock();
            self.check_leadership(&core, bs)?;
            match core.store.path(bs, clause) {
                Some(p) => (p.tag, true),
                None => {
                    let off = core.tags.allocate().ok_or_else(|| {
                        Error::Exhausted(format!("tag slab of seat {} exhausted", self.cfg.id))
                    })?;
                    let tag = self.cfg.id.0 as u16 * TAG_SLAB + off as u16 + 1;
                    (PolicyTag(tag), false)
                }
            }
        };
        if !already_installed {
            self.propose_fresh(ReplicatedOp::PathInstall { bs, clause, tag })?;
        }
        // Same frame and one-tag end-to-end stand-in as the
        // single-controller wire front-end. (seat, commit watermark at
        // release) is this cluster's (shard, seq): `propose` is still
        // held, so a seat's batches leave in non-decreasing commit order.
        Ok(Message::FlowModBatch {
            shard: self.cfg.id.0 as u16,
            seq: self.commit_index() as u32,
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
        })
    }
}

impl NodeCore {
    /// The attached entry and its LWW timestamp for `imsi`.
    fn ue_slot_attached(&self, imsi: UeImsi) -> Option<(UeEntry, SimTime)> {
        let slot = self.store.ue_slot(imsi)?;
        slot.entry.map(|e| (e, slot.since))
    }
}
